#!/bin/sh
# allocprof.sh — the allocation profile behind a perf issue, as one
# command (also `make allocprof WORKLOAD=...`).
#
#   scripts/allocprof.sh <workload> [seed] [regexp]
#
# Profiles exactly the cycles the benchmark measures: perf/ is copied
# into a throw-away sibling directory (perf/ itself is frozen while a PR
# claims a gain, and must not be edited), the copy's run.go gets one
# pprof.Lookup("allocs").WriteTo call at each of the two
# runtime.ReadMemStats boundaries of the measured loop — the same
# boundaries alloc_kb_per_op, allocs_per_op and heap_live_mb are read
# at — and runtime.MemProfileRate is raised to one sample per 16 KiB.
# The workload then runs once (default seed 1, -seconds 20, untraced),
# its result line must still say correct, and two tables are printed:
#
#   - bytes allocated during the measured cycles, by cumulative share
#     (alloc_space of the second profile with the first as -base),
#     followed by one line that splits them between perf's own workload
#     generator, main.(*gen) — the transactions' bags and its bookkeeping
#     of them, the same code at every commit — and everything outside it,
#     the engine's share (pprof -focus and -ignore on main.(*gen));
#   - bytes live at the end of the run (inuse_space, what heap_live_mb
#     sees), flat.
#
# With a third argument the same two views are also printed line by line
# (`pprof -list <regexp>`, e.g. 'bag\.newIndex') for the functions the
# regexp matches. The function-level tables say which function holds
# the bytes; only the listing says which make or append in it does — a
# bucket map pre-sized for 100 000 rows and holding 5 000 keys was a
# third of newIndex's 19 MB and invisible above.
#
# The profiles stay in profiles/ (untracked) for `go tool pprof -list`
# and friends. POSIX sh + awk + go; not part of `make check`.
set -eu

usage() {
	sed -n '2,5p' "$0" >&2
	exit 2
}

[ $# -ge 1 ] && [ $# -le 3 ] || usage
workload=$1 seed=${2:-1} list=${3:-}

root=$(cd "$(dirname "$0")/.." && pwd)
# A sibling of perf/, so the copy's `replace dvm => ../` still finds the
# working tree; hidden, so `./...` patterns skip it while it exists.
copy=$(mktemp -d "$root/.allocprof.XXXXXX")
trap 'rm -rf "$copy"' EXIT
trap 'exit 130' INT TERM
out="$root/profiles"
mkdir -p "$out"
p0="$out/$workload.seed$seed.m0.allocs.pprof"
p1="$out/$workload.seed$seed.m1.allocs.pprof"

for f in "$root"/perf/*.go "$root/perf/go.mod"; do
	cp "$f" "$copy/"
done
[ -f "$root/perf/go.sum" ] && cp "$root/perf/go.sum" "$copy/"

awk '
/runtime\.ReadMemStats\(&m0\)/ { print; print "allocprofDump(0)"; n0++; next }
/runtime\.ReadMemStats\(&m1\)/ { print; print "allocprofDump(1)"; n1++; next }
{ print }
END {
	if (n0 != 1 || n1 != 1) {
		printf "allocprof.sh: perf/run.go has %d ReadMemStats(&m0) and %d ReadMemStats(&m1) anchors, want one of each\n", n0, n1 > "/dev/stderr"
		exit 1
	}
}' "$root/perf/run.go" >"$copy/run.go"

cat >"$copy/allocprof_dump.go" <<EOF
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

func init() { runtime.MemProfileRate = 16 << 10 }

// allocprofDump writes the allocs profile at measurement boundary i. Both
// boundaries follow a runtime.GC(), so the profile is complete up to it.
func allocprofDump(i int) {
	f, err := os.Create([]string{"$p0", "$p1"}[i])
	if err == nil {
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(2)
	}
}
EOF

echo "allocprof.sh: building the patched copy of perf/" >&2
(cd "$copy" && go build -o "$copy/perf.allocprof" .)
echo "allocprof.sh: running $workload, seed $seed" >&2
if ! "$copy/perf.allocprof" -workload "$workload" -seed "$seed" -seconds 20 -trace 0 \
	-out "$copy/out" >"$copy/log" 2>&1; then
	cat "$copy/log" >&2
	echo "allocprof.sh: the run failed" >&2
	exit 1
fi
result=$(tail -n 1 "$copy/log")
case $result in
*'"correct":true'*) ;;
*)
	echo "allocprof.sh: the run is not correct: $result" >&2
	exit 1
	;;
esac
echo "$result"
echo
echo "== allocated during the measured cycles (alloc_space, cumulative, top 30)"
go tool pprof -sample_index=alloc_space -base "$p0" -top -cum -nodecount=30 "$p1"
# genbytes -focus|-ignore: the measured-cycle bytes of the samples with
# (-focus) or without (-ignore) a main.(*gen) frame, and the total.
genbytes() {
	go tool pprof -sample_index=alloc_space -base "$p0" "$1=main\.\(\*gen\)" -unit=B -top \
		-nodecount=1000000 -nodefraction=0 -edgefraction=0 "$p1" 2>/dev/null |
		awk '/^Showing nodes accounting for/ { b = $5; t = $8; sub(/B,$/, "", b); sub(/B$/, "", t); print b, t; found = 1 }
		END { if (!found) print 0, 0 }'
}
{ genbytes -focus; genbytes -ignore; } | awk '
NR == 1 { gen = $1; total = $2 }
NR == 2 { eng = $1; if ($2 > total) total = $2 }
END {
	mb = 1024 * 1024
	if (total == 0) total = 1
	printf "measured cycles: %.1f MB under main.(*gen) (%.1f %%), %.1f MB outside it (%.1f %%)\n",
		gen / mb, 100 * gen / total, eng / mb, 100 * eng / total
}'
echo
echo "== live at the end of the run (inuse_space, flat, top 30)"
go tool pprof -sample_index=inuse_space -top -nodecount=30 "$p1"
echo
if [ -n "$list" ]; then
	# -list reads the sources the binary was built from: the working
	# tree's for dvm/..., the removed copy's for perf's own files.
	echo "== allocated during the measured cycles, by line (alloc_space, -list '$list')"
	go tool pprof -sample_index=alloc_space -base "$p0" -list "$list" "$p1"
	echo
	echo "== live at the end of the run, by line (inuse_space, -list '$list')"
	go tool pprof -sample_index=inuse_space -list "$list" "$p1"
	echo
fi
echo "allocprof.sh: profiles left in $p0 and $p1" >&2
