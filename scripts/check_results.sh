#!/usr/bin/env bash
# Reruns every bench whose results/ file is deterministic and compares
# its stdout byte for byte with the committed file (progress lines on
# stderr are not part of the results). Exits 1 on any difference or
# failed bench, 0 when every file matches.
# Usage: scripts/check_results.sh [build-dir]
set -u
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# These measure real wall-clock time on the host, so their output
# changes from run to run at any commit.
SKIP="bench_ablation_prefetch bench_micro"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
rc=0
for expected in "$ROOT"/results/*.txt; do
  name="$(basename "$expected" .txt)"
  case " $SKIP " in
    *" $name "*)
      echo "skip  $name (depends on wall-clock timing)"
      continue
      ;;
  esac
  bin="$BUILD/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "FAIL  $name (no binary at $bin)"
    rc=1
    continue
  fi
  if ! "$bin" > "$tmp/$name.txt" 2> "$tmp/$name.err"; then
    echo "FAIL  $name (exited non-zero)"
    tail -n 5 "$tmp/$name.err"
    rc=1
  elif cmp -s "$expected" "$tmp/$name.txt"; then
    echo "same  $name"
  else
    echo "DIFF  $name"
    diff "$expected" "$tmp/$name.txt" | head -n 20
    rc=1
  fi
done
exit $rc
