#!/bin/sh
# Print stdout (without elapsed_seconds), stderr and exit code of each command
# whose integer arguments now pass through graphs._check_int, run against the
# library source in checkout $1:
#   sh perf/check-int/cli.sh PARENT > a.txt; sh perf/check-int/cli.sh CHANGE > b.txt; diff a.txt b.txt
tmp=$(mktemp -d)
for args in "seed 5 5 5 --verify" \
  "lemmas --wheel-max 8 --fan-max 8 --line-max 5" \
  "search --theta 1 2 3 --max-n 6 --all --jobs 2" \
  "compute --g6 HwCW?CB --format json" \
  "lemmas --wheel-max 64 --fan-max 2 --line-max 2" \
  "lemmas --line-max 9" \
  "lemmas --wheel-max 3" \
  "compute --g6 Bw --cap 0" \
  "search --theta 2 2 4 --max-n 9" \
  "search --theta 2 2 4 --jobs 0"; do
  echo "== $args"
  PYTHONPATH="$1/src" python3 -m islide.cli $args > "$tmp/out" 2> "$tmp/err"; code=$?
  grep -v elapsed_seconds "$tmp/out"; echo "-- stderr"; cat "$tmp/err"; echo "-- exit $code"
done
rm -rf "$tmp"
