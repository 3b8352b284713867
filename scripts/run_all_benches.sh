#!/usr/bin/env bash
# Runs every bench binary, writing each one's stdout into results/
# (stderr, progress lines included, stays on the terminal).
# scripts/check_results.sh compares a rerun against these files.
# Usage: scripts/run_all_benches.sh [build-dir]
set -u
BUILD="${1:-build}"
mkdir -p results
rc=0
for b in "$BUILD"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== running $name ==="
  if ! "$b" > "results/$name.txt"; then
    echo "FAILED: $name (see results/$name.txt)"
    rc=1
  fi
  tail -n 3 "results/$name.txt"
done
exit $rc
