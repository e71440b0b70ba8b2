#!/bin/sh
# Run alternating parent/change pairs of the untraced benchmark, each side
# from its own checkout and one run at a time, and print one TSV row per
# run (per workload and run for WORKLOAD `all`):
#
#   sh perf/pairs.sh PARENT CHANGE WORKLOAD [SEED [PAIRS [SECONDS]]] > runs-WORKLOAD.tsv
#
# SEED defaults to 1 and PAIRS to 10. SECONDS is passed to bench/run.py
# --seconds when given; otherwise each run lasts BENCHMARK.json's
# run_seconds. Odd pairs run the parent first, even pairs the change first.
# perf/summarize.py reads the rows.
set -e
if [ $# -lt 3 ]; then
  echo "usage: sh perf/pairs.sh PARENT CHANGE WORKLOAD [SEED [PAIRS [SECONDS]]]" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=${4:-1} pairs=${5:-10} seconds=${6:+--seconds $6}
printf 'workload\tseed\tpair\tside\tsetup_s\twall_s\top_p50_ms\top_p95_ms\tpeak_rss_mb\tfailed\tattempted\n'
run() {  # side dir pair
  # shellcheck disable=SC2086  # $seconds is empty or two words
  (cd "$2" && python3 bench/run.py --workload "$workload" --seed "$seed" $seconds --trace 0) |
    python3 -c '
import json, re, sys
side, pair, workload, seed = sys.argv[1:5]
counts, rows = None, []
for line in sys.stdin:
    if line.startswith("fail_ratio"):
        counts = re.search(r"\((\d+) of (\d+) operations\)", line).groups()
    elif line.startswith("facts "):
        rows.append((json.loads(line[6:])["workload"], counts))
    elif line.startswith("{"):
        metrics = json.loads(line)["metrics"]
for name, (failed, attempted) in rows:
    prefix = name + "." if workload == "all" else ""
    print("\t".join([name, seed, pair, side] + [repr(metrics[prefix + k]["value"]) for k in
          ("setup_s", "wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")] + [failed, attempted]))
' "$1" "$3" "$workload" "$seed"
}
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run parent "$parent" "$i"; run change "$change" "$i"
  else run change "$change" "$i"; run parent "$parent" "$i"; fi
  i=$((i + 1))
done
