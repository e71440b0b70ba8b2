#!/bin/sh
# Print stdout (without elapsed_seconds), stderr and exit code of each command
# whose verdict is now read from its checks, run against the library source in
# checkout $1:
#   sh perf/derived-verdicts/cli.sh PARENT > a.txt; sh perf/derived-verdicts/cli.sh CHANGE > b.txt; diff a.txt b.txt
tmp=$(mktemp -d)
printf '8\n0 1\n1 2\n2 3\n0 3\n4 5\n5 6\n6 7\n4 7\n0 4\n1 5\n2 6\n3 7\n' > "$tmp/cube.edges"
printf '0: 0-1 0-3 0-4\n1: 1-2 0-1 1-5\n2: 2-6 2-3 1-2\n3: 2-3 3-7 0-3\n4: 4-5 0-4 4-7\n5: 5-6 1-5 4-5\n6: 6-7 2-6 5-6\n7: 6-7 4-7 3-7\n' > "$tmp/cube.rot"
sed '1s/.*/0: 0-4 0-3 0-1/' "$tmp/cube.rot" > "$tmp/torus.rot"
for args in "seed 5 5 5 --verify" \
  "seed 2 2 5 --verify" \
  "lineseed --g6 EhEG" \
  "lineseed --g6 C^" \
  "dualseed --input $tmp/cube.edges --rotation $tmp/cube.rot" \
  "dualseed --input $tmp/cube.edges --rotation $tmp/torus.rot" \
  "lemmas --wheel-max 8 --fan-max 8 --line-max 5" \
  "lemmas --wheel-max 4 --fan-max 2 --line-max 8" \
  "lemmas --wheel-max 64 --fan-max 2 --line-max 2" \
  "lemmas --wheel-max 4 --fan-max 64 --line-max 2" \
  "search --theta 1 2 3 --max-n 6 --all --jobs 2"; do
  echo "== $args" | sed "s#$tmp/##g"
  PYTHONPATH="$1/src" python3 -m islide.cli $args > "$tmp/out" 2> "$tmp/err"; code=$?
  grep -v elapsed_seconds "$tmp/out"; echo "-- stderr"; cat "$tmp/err"; echo "-- exit $code"
done
rm -rf "$tmp"
