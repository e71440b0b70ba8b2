#!/bin/sh
# Run PAIRS alternating parent/change pairs of the full untraced benchmark,
# each side from its own copy, and print one TSV row per workload and run:
#   sh perf/match-by-iso/pairs.sh PARENT_DIR CHANGE_DIR [PAIRS] > runs.tsv
# Odd pairs run the parent first, even pairs the change first.
parent=$1 change=$2 pairs=${3:-10}
printf 'workload\tseed\tpair\tside\tsetup_s\twall_s\top_p50_ms\top_p95_ms\tpeak_rss_mb\tfailed\tattempted\n'
run() {  # side dir pair
  (cd "$2" && python3 bench/run.py --workload all --trace 0) | python3 -c '
import json, re, sys
side, pair = sys.argv[1], sys.argv[2]
counts, rows = None, []
for line in sys.stdin:
    if line.startswith("fail_ratio"):
        counts = re.search(r"\((\d+) of (\d+) operations\)", line).groups()
    elif line.startswith("facts "):
        rows.append((json.loads(line[6:])["workload"], counts))
    elif line.startswith("{"):
        m = json.loads(line)["metrics"]
for workload, (failed, attempted) in rows:
    print("\t".join([workload, "1", pair, side] + [repr(m[f"{workload}.{k}"]["value"]) for k in
          ("setup_s", "wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")] + [failed, attempted]))
' "$1" "$3"
}
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run parent "$parent" "$i"; run change "$change" "$i"
  else run change "$change" "$i"; run parent "$parent" "$i"; fi
  i=$((i + 1))
done
