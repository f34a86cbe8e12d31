#!/usr/bin/env bash
# flakes.sh — the measuring tests under load. Every test whose name
# matches 'Alloc|Heap|Profile|Frees|LiveBytes' (allocation and heap
# bounds, live bytes per row, the labeled CPU profile, freeing a dropped
# table) runs 50 times in the
# packages that declare one, while a plain `go test ./...` loads the
# machine: one at a time, restarted until the measuring run ends. A
# measuring test that fails only under load is a flake, and a flaky gate
# is red by chance. Prints each test's failures out of its runs and the
# output of every failed run; exits non-zero if any run failed. Not part
# of check.sh.
#
#   scripts/flakes.sh        (make flakes)
set -euo pipefail
cd "$(dirname "$0")/.."

run='Alloc|Heap|Profile|Frees|LiveBytes'
# perf/ is a module of its own: the root `go test` does not reach it.
pkgs=$(git grep -lE "^func Test\w*($run)" -- '*_test.go' ':!perf' |
	xargs -n1 dirname | sort -u | sed 's|^|./|')

tmp=$(mktemp -d "${TMPDIR:-/tmp}/dvm-flakes.XXXXXX")
# The load runs as a job of its own process group, so the trap stops the
# go command and the test binary it is running together.
set -m
(while :; do go test -count=1 ./... >/dev/null 2>&1 || true; done) &
load=$!
set +m
trap 'kill -- -$load 2>/dev/null || true; wait $load 2>/dev/null || true; rm -rf "$tmp"' EXIT

start=$(date +%s)
status=0
# shellcheck disable=SC2086 # one argument per package
go test -v -timeout 60m -count=50 -run "$run" $pkgs >"$tmp/log" 2>&1 || status=$?
wall=$(($(date +%s) - start))

# A top-level test's result line starts the line; a subtest's is
# indented, and is counted with its parent.
grep -E '^--- (PASS|FAIL|SKIP): ' "$tmp/log" |
	awk '{ runs[$3]++; if ($2 == "FAIL:") failed[$3]++ }
	END { for (t in runs) printf "%3d/%d failed  %s\n", failed[t], runs[t], t }' | sort -k3
# A package fails when a test of it failed, or outside any test (a
# build error, a panic, a timeout: then its tests ran fewer rounds).
grep -E '^FAIL[[:space:]]' "$tmp/log" || true
if [ "$status" -ne 0 ]; then
	echo "== output of the failed runs (the first 3 of each test)"
	# A top-level test's output since its "=== RUN", printed at its
	# "--- FAIL".
	awk '/^=== RUN/ && !/\// { buf = "" }
	{ buf = buf $0 "\n" }
	/^--- FAIL: / && ++shown[$3] <= 3 { printf "%s", buf }' "$tmp/log"
	# A build error or a timeout fails no test: show where the log ends.
	grep -q '^--- FAIL: ' "$tmp/log" || tail -n 50 "$tmp/log"
fi
echo "flakes: -count=50 under a parallel go test ./..., wall clock ${wall}s"
exit $status
