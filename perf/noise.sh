#!/usr/bin/env bash
# Noise report: two sets of RUNS (default 5) seeds; every seed runs every
# workload untraced (the end-to-end metrics) and traced (the per-layer
# ones, among them the demoted timing metrics), workloads interleaved so
# that a slow minute hits all of them alike. Prints the report and seed
# 1's budget tables (perf/NOISE.md is a committed copy) and exits non-zero
# if an end-to-end metric is outside its limits.
#
#   perf/noise.sh > perf/NOISE.md        # ~40 min at RUNS=5
set -u
cd "$(dirname "$0")"
runs=${RUNS:-5}
workloads="retail_policy2 multiview_writes fresh_reads sql_day"
mkdir -p out
go build -o out/perf . || exit 2
rm -rf out/noise
for set in 1 2; do
	mkdir -p out/noise/set$set out/noise/traced$set
	for i in $(seq 1 "$runs"); do
		seed=$(((set - 1) * runs + i))
		for w in $workloads; do
			out/perf -workload "$w" -seed "$seed" >out/noise/set$set/"$w.$i".json || exit 1
			out/perf -workload "$w" -seed "$seed" -trace 1 -out out/noise/budget$seed >out/noise/traced$set/"$w.$i".json || exit 1
		done
	done
done
out/perf -noise out/noise
status=$?
echo
echo "# Budget tables: the traced runs of seed 1"
echo
echo 'Each span name'"'"'s self time as a share of `day_ms` on the traced cycles; `cycle` and `tick` are the'
echo 'driver'"'"'s own loop (`bench.untimed_share`).'
for w in $workloads; do
	echo
	echo '```'
	cat out/noise/budget1/"$w".budget.txt
	grep -E '^  (bench\.|sql\.parse_share)' out/noise/traced1/"$w".1.json
	echo '```'
done
exit $status
