#!/usr/bin/env bash
# Feeds hetps_train bad flags and checks each is refused before any work.
#
# Usage: scripts/check_cli_flags.sh path/to/hetps_train
#
# For every command (train under both runtimes) it reads `--help` and
# passes each typed flag listed there one malformed value; it passes each
# bounded flag in the list below one out-of-range value, and every command
# one unknown flag. Each run must exit 1 (so no abort or core dump),
# print nothing on stdout (no training or simulation output), and print an
# "error:" line naming the flag or the option it sets. Exits 1 when any
# command lets a bad value through, after listing each such command.
set -uo pipefail

BIN="${1:?usage: $0 path/to/hetps_train}"
OUT="$(mktemp)"
ERR="$(mktemp)"
trap 'rm -f "$OUT" "$ERR"' EXIT
checked=0
failed=0

# expect_rejected NEEDLE ARG...: hetps_train ARG... must be refused with an
# error line containing NEEDLE.
expect_rejected() {
  local needle="$1"
  shift
  timeout 30 "$BIN" "$@" >"$OUT" 2>"$ERR"
  local rc=$?
  checked=$((checked + 1))
  if [ "$rc" -ne 1 ] || [ -s "$OUT" ] ||
     ! grep '^error: ' "$ERR" | grep -qF -- "$needle"; then
    echo "NOT REFUSED (exit $rc): hetps_train $*" >&2
    head -n 3 "$OUT" "$ERR" >&2
    failed=$((failed + 1))
  fi
}

# One value of each --help type that the type does not accept; plain
# strings (paths, names) accept anything and are skipped.
malformed_value() {
  case "$1" in
    int|uint|number) echo "2x" ;;
    bool) echo "ture" ;;
    list) echo "0,x" ;;
    string) ;;
    *) echo "bogus" ;;  # a choice: a|b|c
  esac
}

# fuzz_help ARG...: the command line ARG... (command and base flags) with
# each flag its --help lists set to a malformed value, in place of the
# base flag of that name.
fuzz_help() {
  local help
  if ! help="$(timeout 30 "$BIN" "$@" --help)"; then
    echo "hetps_train $* --help failed" >&2
    failed=$((failed + 1))
    return
  fi
  local listed=0 name type bad
  while read -r name type; do
    listed=$((listed + 1))
    bad="$(malformed_value "$type")"
    [ -n "$bad" ] || continue
    local args=() arg
    for arg in "$@"; do
      [[ "$arg" == "--$name="* ]] || args+=("$arg")
    done
    expect_rejected "--$name" "${args[@]}" "--$name=$bad"
  done < <(sed -n 's/^  --\([a-z_]*\)=\([^ ]*\) .*/\1 \2/p' <<<"$help")
  if [ "$listed" -eq 0 ]; then
    echo "hetps_train $* --help lists no flags" >&2
    failed=$((failed + 1))
  fi
}

T=(train --synthetic=ctr)
R=(train --runtime=rpc --synthetic=ctr)
S=(simulate --synthetic=ctr --workers=4 --servers=2)
COMMANDS=("${T[*]}" "${R[*]}" "${S[*]}" "evaluate --synthetic=ctr"
          "predict --synthetic=ctr" check-obs inspect dump-status top
          obs-ctl)

for command in "${COMMANDS[@]}"; do
  read -r -a args <<<"$command"
  fuzz_help "${args[@]}"
  expect_rejected "--bogus" "${args[@]}" --bogus=1
done

# Bounded flags: NEEDLE (the flag, or the option field its error names)
# and the out-of-range value.
TRAIN_BOUNDS=(
  "worker/server counts|--workers=0"
  "worker/server counts|--servers=0"
  "more servers than features|--servers=1000000"
  "max_clocks|--clocks=0"
  "staleness|--staleness=-1"
  "l2|--l2=-1"
  "batch_fraction|--batch_fraction=0"
  "batch_fraction|--batch_fraction=1.5"
  "partitions_per_server|--partitions=0"
  "update_filter_epsilon|--update_filter=-1"
  "push_window|--push_window=-1"
  "push_parallelism|--push_parallelism=-1"
  "heartbeat_timeout_seconds|--heartbeat_timeout=-5"
  "injected_compute_delay|--compute_delay=-1"
  "injected_compute_delay|--compute_delay=0,0,0,0,0"
  "learning_rate|--lr=0"
)
for bound in "${TRAIN_BOUNDS[@]}"; do
  expect_rejected "${bound%%|*}" "${T[@]}" ${bound#*|}
  expect_rejected "${bound%%|*}" "${R[@]}" ${bound#*|}
done
BALANCER_BOUNDS=(
  "--straggler_threshold|--rebalance --straggler_threshold=0.5"
  "--reassign_fraction|--rebalance --reassign_fraction=2"
  "--rebalance_hysteresis|--rebalance --rebalance_hysteresis=0"
)
for bound in "${BALANCER_BOUNDS[@]}"; do
  expect_rejected "${bound%%|*}" "${R[@]}" ${bound#*|}
  expect_rejected "${bound%%|*}" "${S[@]}" ${bound#*|}
done
# The threaded runtime has neither plane.
expect_rejected "rebalancing plane" "${T[@]}" --rebalance
expect_rejected "liveness plane" "${T[@]}" --heartbeat_timeout=5

SIM_BOUNDS=(
  "--workers|--workers=0"
  "--servers|--servers=0"
  "more servers than features|--servers=1000000"
  "more workers than examples|--workers=8001"
  "--hl|--hl=0.5"
  "--lr|--lr=0"
  "max_clocks|--clocks=0"
  "staleness|--staleness=-1"
  "l2|--l2=-1"
  "batch_fraction|--batch_fraction=0"
  "partitions_per_server|--partitions=0"
  "update_filter_epsilon|--update_filter=-1"
  "push_window|--push_window=-2"
  "heartbeat_timeout_seconds|--heartbeat_timeout=-5"
  "objective_tolerance|--tolerance=nan"
  "kill_worker|--kill_worker=-3 --kill_at_clock=1"
  "--kill_worker|--kill_worker=4 --kill_at_clock=1"
  "kill_at_clock|--kill_at_clock=-2"
  "slow_worker|--slow_worker=-2"
  "--slow_worker|--slow_worker=4"
  "slow_multiplier|--slow_worker=1 --slow_multiplier=0"
  "max_sim_seconds|--max_sim_seconds=0"
)
for bound in "${SIM_BOUNDS[@]}"; do
  read -r -a values <<<"${bound#*|}"
  base=()
  for arg in "${S[@]}"; do
    [[ " ${values[*]}" == *" ${arg%%=*}="* ]] || base+=("$arg")
  done
  expect_rejected "${bound%%|*}" "${base[@]}" "${values[@]}"
done
expect_rejected "--slow_op" obs-ctl --slow_us=1 --slow_op=bogus

echo "checked $checked bad command lines, $failed let through"
[ "$failed" -eq 0 ]
