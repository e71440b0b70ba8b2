#!/bin/sh
# Print stdout (without elapsed_seconds), stderr and exit code of each search
# command, run against the library source in checkout $1:
#   sh perf/one-scan-call/cli.sh PARENT > a.txt; sh perf/one-scan-call/cli.sh CHANGE > b.txt; cmp a.txt b.txt
tmp=$(mktemp -d)
for args in "search --theta 1 2 3 --max-n 5" \
  "search --theta 1 2 3 --max-n 6 --all --jobs 2" \
  "search --target DD[ --max-n 6" \
  "search --target DD[ --max-n 6 --connected" \
  "search --theta 1 2 3 --max-n 5 --expect-none" \
  "search --theta 2 2 4 --max-n 7 --expect-none --jobs 2"; do
  echo "== $args"
  PYTHONPATH="$1/src" python3 -m islide.cli $args > "$tmp/out" 2> "$tmp/err"; code=$?
  grep -v elapsed_seconds "$tmp/out"; echo "-- stderr"; cat "$tmp/err"; echo "-- exit $code"
done
rm -rf "$tmp"
