#!/bin/sh
# Run PAIRS alternating parent/change pairs of one untraced benchmark workload,
# each side from its own copy, and print one TSV row per run:
#   sh perf/derived-verdicts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] > runs-WORKLOAD.tsv
# Odd pairs run the parent first, even pairs the change first.
parent=$1 change=$2 workload=$3 pairs=${4:-10}
printf 'workload\tseed\tpair\tside\tsetup_s\twall_s\top_p50_ms\top_p95_ms\tpeak_rss_mb\tfailed\tattempted\n'
run() {  # side dir pair
  (cd "$2" && python3 bench/run.py --workload "$workload" --trace 0) | python3 -c '
import json, re, sys
side, pair, workload = sys.argv[1], sys.argv[2], sys.argv[3]
for line in sys.stdin:
    if line.startswith("fail_ratio"):
        failed, attempted = re.search(r"\((\d+) of (\d+) operations\)", line).groups()
    elif line.startswith("{"):
        m = json.loads(line)["metrics"]
print("\t".join([workload, "1", pair, side] + [repr(m[k]["value"]) for k in
      ("setup_s", "wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")] + [failed, attempted]))
' "$1" "$3" "$workload"
}
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run parent "$parent" "$i"; run change "$change" "$i"
  else run change "$change" "$i"; run parent "$parent" "$i"; fi
  i=$((i + 1))
done
