#!/usr/bin/env bash
# bench_pairs.sh — paired end-to-end benchmark runs of a base revision
# against the working tree.
#
# Usage: scripts/bench_pairs.sh <rev> <workload> <seed> <pairs> [dir]
#
# Extracts <rev> with git archive (no network) into <dir>/base, then
# runs `bash bench/run.sh -workload W -seed S -seconds 10 -trace 0`
# <pairs> times on each side, alternating which side runs first. Each
# run's info and result lines go to <dir>/base.jsonl or <dir>/head.jsonl.
# It then prints `bench/run.sh -compare` on the two files and, for each
# end-to-end metric, the pairs the working tree won (ties count for
# neither side), each side's median and the base's quartiles: a gain
# holds when the tree wins at least nine tenths of the pairs and the
# medians differ by more than the base's quartile distance. <dir>
# defaults to a new temporary directory; its path is printed.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 <rev> <workload> <seed> <pairs> [dir]" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
if [ -n "${5:-}" ]; then
	mkdir -p "$5"
	dir=$(cd "$5" && pwd)
else
	dir=$(mktemp -d)
fi
cd "$(dirname "$0")/.."
mkdir -p "$dir/base"
git archive "$rev" | tar -x -C "$dir/base"
: >"$dir/base.jsonl"
: >"$dir/head.jsonl"
echo "bench_pairs: $rev vs working tree, $workload seed $seed, $pairs pairs, in $dir" >&2

run() { # run <tree> <file>
	(cd "$1" && bash bench/run.sh -workload "$workload" -seed "$seed" -seconds 10 -trace 0) | tail -n 2 >>"$2"
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$dir/base" "$dir/base.jsonl"
		run . "$dir/head.jsonl"
	else
		run . "$dir/head.jsonl"
		run "$dir/base" "$dir/base.jsonl"
	fi
done

bash bench/run.sh -compare "$dir/base.jsonl" "$dir/head.jsonl"

# values <metric> <file>: the metric's value on each result line.
values() { grep -o "\"$1\":{\"value\":[^,}]*" "$2" | sed 's/.*"value"://'; }
# quartiles: median, lower and upper quartile of stdin, by the rule
# bench/run.sh -compare uses.
quartiles() {
	sort -g | awk '{v[NR] = $1}
		function q(i,  m, j, d) {
			if (NR == 1) return v[1]
			m = NR + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
			d = i * m - j * 4; return (v[j] * (4 - d) + v[j + 1] * d) / 4
		}
		END { printf "%.4g %.4g %.4g", (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2), q(1), q(3) }'
}
echo
echo "metric           wins  head median  base median  base q1..q3  (quartile distance)"
for m in throughput_sps:higher latency_p50_ms:lower latency_p95_ms:lower setup_s:lower; do
	name=${m%%:*} better=${m##*:}
	wins=$(paste <(values "$name" "$dir/base.jsonl") <(values "$name" "$dir/head.jsonl") |
		awk -v b="$better" '{ if ((b == "higher" && $2 > $1) || (b == "lower" && $2 < $1)) w++ } END { printf "%d/%d", w, NR }')
	read -r hm _ _ <<<"$(values "$name" "$dir/head.jsonl" | quartiles)"
	read -r bm bq1 bq3 <<<"$(values "$name" "$dir/base.jsonl" | quartiles)"
	awk -v n="$name" -v w="$wins" -v hm="$hm" -v bm="$bm" -v q1="$bq1" -v q3="$bq3" 'BEGIN {
		printf "%-16s %-5s %11.4g  %11.4g  %.4g..%.4g  (%.4g, %.1f%% of the base median; medians differ by %.1f%%)\n",
			n, w, hm, bm, q1, q3, q3 - q1, 100 * (q3 - q1) / bm, 100 * (hm - bm) / bm }'
done
