#!/usr/bin/env bash
# One command: build the benchmark once, run all four workloads, print
# the day's twelve metrics (with -trace 1: every per-layer metric) by name
# with their units, the ops_attempted/ops_failed line and the verification
# result; exit non-zero if any workload fails.
#
#   perf/run.sh [-seed N] [-seconds N] [-trace 0|1]
#
# With -trace 1 each run also prints its budget table and writes
# perf/out/<workload>.trace.json and .budget.txt.
set -u
cd "$(dirname "$0")"
mkdir -p out
go build -o out/perf . || exit 2
status=0
for w in retail_policy2 multiview_writes fresh_reads sql_day; do
	echo "== $w"
	out/perf -workload "$w" "$@" || status=1
done
exit $status
