#!/bin/sh
# pair.sh — the paired-run protocol for a performance claim, as one
# command (ROADMAP item 2(d); the rule is choosing-metrics §8).
#
#   scripts/pair.sh [-trace 1] [-metrics a,b,...] [-seed N] <parent-ref> <n> [workload...]
#
# Builds the perf benchmark of <parent-ref> (its committed files, unpacked
# with `git archive` into a temporary directory — nothing is written to
# .git) and of the working tree, once each, then runs <n> pairs per
# workload: the same seed on both sides, seeds N, N+1, ... (default 101 —
# not the seeds 1..5 a change is developed against), alternating which
# side runs first. Each run's last line of output is the benchmark's JSON
# result. Its header line names the Go version and GOMAXPROCS the runs
# had. Per workload and metric it prints both medians with [q1, q3],
# the pairs the change won / lost / tied (lower is better for every
# metric the benchmark has), and a verdict:
#
#   PASS        the change won at least 9/10 of the pairs and the medians
#               differ by more than the parent's own spread (q3 - q1);
#   REGRESSION  the change's median is worse than the parent's by more
#               than the bound BENCHMARK.json sets for the metric;
#   higher      the PASS rule the other way round, inside the bound (or
#               the metric has none);
#   -           none of these: not resolved at this n.
#
# Without -trace the metrics are the five end-to-end ones; with -trace 1
# the per-layer ones (all of them, or those named with -metrics). A run
# that fails an op or its end-of-run verification stops the script.
# POSIX sh + awk + git + tar + go; a pair of runs takes about a minute.
set -eu

usage() {
	sed -n '2,6p' "$0" >&2
	exit 2
}

trace=0 metrics="" seed0=101
while [ $# -gt 0 ]; do
	case "$1" in
	-trace) trace=$2; shift 2 ;;
	-metrics) metrics=$2; shift 2 ;;
	-seed) seed0=$2; shift 2 ;;
	-*) usage ;;
	*) break ;;
	esac
done
[ $# -ge 2 ] || usage
ref=$1 n=$2
shift 2
[ $# -gt 0 ] || set -- retail_policy2 multiview_writes fresh_reads sql_day

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/dvm-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent" "$tmp/res"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
echo "pair.sh: building perf at $ref and in the working tree" >&2
(cd "$tmp/parent/perf" && go build -o "$tmp/perf.parent" .)
(cd "$root/perf" && go build -o "$tmp/perf.change" .)

# one <side> <workload> <pair>
one() {
	if ! "$tmp/perf.$1" -workload "$2" -seed $((seed0 + $3 - 1)) -seconds 20 -trace "$trace" \
		-out "$tmp/out.$1" >"$tmp/log" 2>&1; then
		cat "$tmp/log" >&2
		echo "pair.sh: the $1 side failed on $2, seed $((seed0 + $3 - 1))" >&2
		exit 1
	fi
	tail -n 1 "$tmp/log" >"$tmp/res/$2.$1.$3"
}

for w in "$@"; do
	i=1
	while [ "$i" -le "$n" ]; do
		echo "pair.sh: $w pair $i/$n" >&2
		if [ $((i % 2)) -eq 1 ]; then
			one parent "$w" "$i"; one change "$w" "$i"
		else
			one change "$w" "$i"; one parent "$w" "$i"
		fi
		i=$((i + 1))
	done
done

# quantile() is perf/rec.go's: linear interpolation between order statistics.
# Every byte figure depends on the runtime's map layout (go1.24's swiss
# tables, go1.22's bucket maps) and every time on the processors the
# runtime schedules on, so the header says which ones ran.
goversion=$(go version | awk '{ print $3, $4 }')
procs=${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}
awk -v n="$n" -v workloads="$*" -v want="$metrics" -v res="$tmp/res" -v bench="$root/BENCHMARK.json" -v ref="$ref" -v trace="$trace" -v seed0="$seed0" \
	-v goversion="$goversion" -v procs="$procs" '
function quantile(a, cnt, q,    pos, i) {
	pos = q * (cnt - 1); i = int(pos)
	if (i + 1 >= cnt) return a[cnt]
	return a[i + 1] + (pos - i) * (a[i + 2] - a[i + 1])
}
function sorted(src, dst, cnt,    i, j, t) {
	for (i = 1; i <= cnt; i++) dst[i] = src[i]
	for (i = 2; i <= cnt; i++) {
		t = dst[i]
		for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
		dst[j + 1] = t
	}
}
# load reads one result line into val[side, metric, pair].
function load(file, side, pair,    line, s, name) {
	if ((getline line < file) <= 0) { print "pair.sh: no result in " file > "/dev/stderr"; exit 1 }
	close(file)
	if (line !~ /"correct":true/ || line !~ /"failed":0[,}]/) {
		print "pair.sh: a " side " run failed ops or verification: " line > "/dev/stderr"; exit 1
	}
	while (match(line, /"[A-Za-z0-9_.]+":[{]"value":[-+0-9.eE]+/)) {
		s = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		name = substr(s, 2, index(s, "\":") - 2)
		sub(/.*"value":/, "", s)
		val[side, name, pair] = s + 0
		if (!(name in seen)) { seen[name] = 1; order[++norder] = name }
	}
}
BEGIN {
	while ((getline line < bench) > 0) {
		if (match(line, /"name": *"[^"]+"/)) { name = substr(line, RSTART, RLENGTH); gsub(/"name": *|"/, "", name) }
		if (line ~ /"bound":/) { sub(/.*"bound": */, "", line); bound[name] = line + 0 }
	}
	nw = split(workloads, ws, " ")
	printf "parent %s vs working tree, %d pairs per workload, seeds %d..%d, -trace %d; %s, GOMAXPROCS=%s\n\n", ref, n, seed0, seed0 + n - 1, trace, goversion, procs
	printf "%-17s %-38s %-32s %-32s %-9s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "w/l/t", "verdict"
	for (wi = 1; wi <= nw; wi++) {
		w = ws[wi]
		split("", val); split("", seen); norder = 0
		for (i = 1; i <= n; i++) {
			load(res "/" w ".parent." i, "p", i)
			load(res "/" w ".change." i, "c", i)
		}
		if (want != "") { norder = split(want, order, ",") }
		for (k = 1; k <= norder; k++) {
			m = order[k]
			if (!(("p", m, 1) in val)) { printf "%-17s %-38s not reported\n", w, m; continue }
			won = lost = tied = 0
			for (i = 1; i <= n; i++) {
				p[i] = val["p", m, i]; c[i] = val["c", m, i]
				if (c[i] < p[i]) won++; else if (c[i] > p[i]) lost++; else tied++
			}
			sorted(p, ps, n); sorted(c, cs, n)
			pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
			iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
			verdict = "-"
			if (won * 10 >= n * 9 && pm - cm > iqr) verdict = "PASS"
			if (lost * 10 >= n * 9 && cm - pm > iqr) verdict = "higher"
			if ((m in bound) && cm > pm * (1 + bound[m])) verdict = "REGRESSION"
			if (m in bound) verdict = verdict ", bound " bound[m]
			delta = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
			printf "%-17s %-38s %-32s %-32s %-9s %s (%s)\n", w, m, \
				sprintf("%.6g [%.6g, %.6g]", pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75)), \
				sprintf("%.6g [%.6g, %.6g]", cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75)), \
				won "/" lost "/" tied, verdict, delta
		}
	}
}'
