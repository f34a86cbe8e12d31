#!/bin/sh
# allocprof.sh — the allocation profile behind a perf issue, as one
# command (also `make allocprof WORKLOAD=... [BASE=<ref>]`).
#
#   scripts/allocprof.sh [-base <ref>] <workload> [seed] [regexp]
#
# Profiles exactly the cycles the benchmark measures: perf/ is copied
# into a throw-away directory under $TMPDIR, pointed at the working tree
# by `go mod edit -replace` (perf/ itself is frozen while a PR claims a
# gain, and must not be edited; nothing is written inside the tree but
# profiles/, so a run cut short leaves no stray sources behind for
# gofmt or `./...` to find), the copy's run.go gets one
# pprof.Lookup("allocs").WriteTo call at each of the two
# runtime.ReadMemStats boundaries of the measured loop — the same
# boundaries alloc_kb_per_op, allocs_per_op and heap_live_mb are read
# at — and runtime.MemProfileRate is raised to one sample per 16 KiB.
# The workload then runs once (default seed 1, -seconds 20, untraced),
# its result line must still say correct, and after a header line that
# names the Go version and GOMAXPROCS, these tables are printed:
#
#   - bytes allocated during the measured cycles, by cumulative share
#     (alloc_space of the second profile with the first as -base);
#   - the same cycles by alloc_objects, the sampled allocation count:
#     what allocs_per_op counts, where alloc_space says what
#     alloc_kb_per_op does. A change can move one and not the other —
#     many small objects become one slab — and only this table says
#     where allocs_per_op's allocations are made;
#   - one line that splits the cycles' bytes, and their objects, between
#     perf's own workload generator, main.(*gen) — the transactions' bags
#     and its bookkeeping of them, the same code at every commit — and
#     everything outside it, the engine's share (pprof -focus and
#     -ignore on main.(*gen));
#   - bytes live at the end of the run (inuse_space, what heap_live_mb
#     sees), flat.
#
# With -base, the committed tree at <ref> (unpacked with `git archive`
# into a temporary directory, as pair.sh does; nothing is written to
# .git) is profiled the same way first, and its split line is printed
# beside the working tree's, followed by the measured-cycle bytes of the
# working tree against <ref>'s (pprof -diff_base, cumulative, top 30),
# by alloc_space and by alloc_objects: a negative row is a saving. A
# perf change shows with it where its saving lands.
#
# With a regexp the same two views are also printed line by line
# (`pprof -list <regexp>`, e.g. 'bag\.newIndex') for the functions the
# regexp matches. The function-level tables say which function holds
# the bytes; only the listing says which make or append in it does — a
# bucket map pre-sized for 100 000 rows and holding 5 000 keys was a
# third of newIndex's 19 MB and invisible above.
#
# The profiles stay in profiles/ (untracked) for `go tool pprof -list`
# and friends. POSIX sh + awk + git + tar + go; not part of `make check`.
set -eu

usage() {
	sed -n '2,5p' "$0" >&2
	exit 2
}

base=""
if [ $# -ge 2 ] && [ "$1" = -base ]; then
	base=$2
	shift 2
fi
[ $# -ge 1 ] && [ $# -le 3 ] || usage
workload=$1 seed=${2:-1} list=${3:-}

root=$(cd "$(dirname "$0")/.." && pwd)
copy=$(mktemp -d "${TMPDIR:-/tmp}/dvm-allocprof.XXXXXX")
tmp=""
trap 'rm -rf "$copy" ${tmp:+"$tmp"}' EXIT
trap 'exit 130' INT TERM
trap 'exit 141' PIPE
out="$root/profiles"
mkdir -p "$out"
name="$out/$workload.seed$seed"

# patchperf <perf-dir> <dir> <p0> <p1> writes into dir a run.go from
# perf-dir's with a profile dump at each measurement boundary, and the
# dump itself, writing to p0 and p1.
patchperf() {
	awk '
	/runtime\.ReadMemStats\(&m0\)/ { print; print "allocprofDump(0)"; n0++; next }
	/runtime\.ReadMemStats\(&m1\)/ { print; print "allocprofDump(1)"; n1++; next }
	{ print }
	END {
		if (n0 != 1 || n1 != 1) {
			printf "allocprof.sh: perf/run.go has %d ReadMemStats(&m0) and %d ReadMemStats(&m1) anchors, want one of each\n", n0, n1 > "/dev/stderr"
			exit 1
		}
	}' "$1/run.go" >"$2/run.go.patched"
	mv "$2/run.go.patched" "$2/run.go"
	cat >"$2/allocprof_dump.go" <<EOF
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
	f, err := os.Create([]string{"$3", "$4"}[i])
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
}

# measure <dir> <label> builds the patched perf in dir, runs the workload
# once and prints its result line, which must say correct.
measure() {
	echo "allocprof.sh: building the patched perf of $2" >&2
	(cd "$1" && go build -o "$1/perf.allocprof" .)
	echo "allocprof.sh: running $workload, seed $seed, on $2" >&2
	if ! "$1/perf.allocprof" -workload "$workload" -seed "$seed" -seconds 20 -trace 0 \
		-out "$1/out" >"$1/log" 2>&1; then
		cat "$1/log" >&2
		echo "allocprof.sh: the run on $2 failed" >&2
		exit 1
	fi
	result=$(tail -n 1 "$1/log")
	case $result in
	*'"correct":true'*) ;;
	*)
		echo "allocprof.sh: the run on $2 is not correct: $result" >&2
		exit 1
		;;
	esac
	echo "$2: $result"
}

# gentotal <p0> <p1> -focus|-ignore <sample-index>: the measured-cycle
# total of alloc_space (bytes) or alloc_objects (sampled objects) over
# the samples with (-focus) or without (-ignore) a main.(*gen) frame,
# and over all samples. -unit=B prints either unscaled.
gentotal() {
	go tool pprof -sample_index="$4" -base "$1" "$3=main\.\(\*gen\)" -unit=B -top \
		-nodecount=1000000 -nodefraction=0 -edgefraction=0 "$2" 2>/dev/null |
		awk '/^Showing nodes accounting for/ { b = $5; t = $8; sub(/B,$/, "", b); sub(/B$/, "", t); print b, t; found = 1 }
		END { if (!found) print 0, 0 }'
}

# gensplit <p0> <p1> <label> prints the measured-cycle bytes and objects
# under main.(*gen) and outside it.
gensplit() {
	{
		gentotal "$1" "$2" -focus alloc_space
		gentotal "$1" "$2" -ignore alloc_space
		gentotal "$1" "$2" -focus alloc_objects
		gentotal "$1" "$2" -ignore alloc_objects
	} | awk -v label="$3" '
	NR == 1 { gen = $1; total = $2 }
	NR == 2 { eng = $1; if ($2 > total) total = $2 }
	NR == 3 { ogen = $1; ototal = $2 }
	NR == 4 { oeng = $1; if ($2 > ototal) ototal = $2 }
	END {
		mb = 1024 * 1024
		if (total == 0) total = 1
		if (ototal == 0) ototal = 1
		printf "measured cycles (%s): %.1f MB under main.(*gen) (%.1f %%), %.1f MB outside it (%.1f %%); %d objects under main.(*gen) (%.1f %%), %d outside it (%.1f %%)\n",
			label, gen / mb, 100 * gen / total, eng / mb, 100 * eng / total,
			ogen, 100 * ogen / ototal, oeng, 100 * oeng / ototal
	}'
}

# Every byte figure depends on the runtime's map layout (go1.24's swiss
# tables, go1.22's bucket maps), so the header says which one ran.
echo "allocprof.sh: $workload, seed $seed${base:+, against $base}; $(go version | awk '{ print $3, $4 }'), GOMAXPROCS=${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}"

if [ -n "$base" ]; then
	tmp=$(mktemp -d "${TMPDIR:-/tmp}/dvm-allocprof.XXXXXX")
	git -C "$root" archive "$base" | tar -x -C "$tmp"
	patchperf "$tmp/perf" "$tmp/perf" "$name.base.m0.allocs.pprof" "$name.base.m1.allocs.pprof"
	measure "$tmp/perf" "$base"
fi

for f in "$root"/perf/*.go "$root/perf/go.mod"; do
	cp "$f" "$copy/"
done
[ -f "$root/perf/go.sum" ] && cp "$root/perf/go.sum" "$copy/"
(cd "$copy" && go mod edit -replace dvm="$root")
p0="$name.m0.allocs.pprof" p1="$name.m1.allocs.pprof"
patchperf "$root/perf" "$copy" "$p0" "$p1"
measure "$copy" "working tree"

echo
echo "== allocated during the measured cycles (alloc_space, cumulative, top 30)"
go tool pprof -sample_index=alloc_space -base "$p0" -top -cum -nodecount=30 "$p1"
echo
echo "== allocated during the measured cycles (alloc_objects, cumulative, top 30)"
go tool pprof -sample_index=alloc_objects -base "$p0" -top -cum -nodecount=30 "$p1"
if [ -n "$base" ]; then
	gensplit "$name.base.m0.allocs.pprof" "$name.base.m1.allocs.pprof" "$base"
fi
gensplit "$p0" "$p1" "working tree"
if [ -n "$base" ]; then
	# Each side's measured cycles as one profile, then one against the other.
	go tool pprof -proto -base "$name.base.m0.allocs.pprof" "$name.base.m1.allocs.pprof" \
		>"$name.base.cycles.pb.gz" 2>/dev/null
	go tool pprof -proto -base "$p0" "$p1" >"$name.cycles.pb.gz" 2>/dev/null
	echo
	echo "== allocated during the measured cycles, working tree against $base (alloc_space, -diff_base, cumulative, top 30)"
	go tool pprof -sample_index=alloc_space -diff_base "$name.base.cycles.pb.gz" -top -cum -nodecount=30 \
		"$name.cycles.pb.gz"
	echo
	echo "== allocated during the measured cycles, working tree against $base (alloc_objects, -diff_base, cumulative, top 30)"
	go tool pprof -sample_index=alloc_objects -diff_base "$name.base.cycles.pb.gz" -top -cum -nodecount=30 \
		"$name.cycles.pb.gz"
fi
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
echo "allocprof.sh: profiles left in $out ($workload.seed$seed.*)" >&2
