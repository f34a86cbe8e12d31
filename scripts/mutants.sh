#!/usr/bin/env bash
# mutants.sh — the kept mutants: each testdata/mutants/*.patch seeds one
# bug that a named check must catch. Every patch is applied, one at a
# time, to a throw-away copy of the working tree (under $TMPDIR), and
# the command on its "# check: " header line is run there; the mutant
# is killed when that command fails. Each distinct check first runs
# once on the unmutated copy, where it must pass: a check that fails for
# another reason (a compile error, a wrong package path) would read as a
# kill. The script fails if a check fails unmutated, if a mutant
# survives, or if a patch no longer applies (the code it mutates has
# moved: regenerate the patch with git diff). Not part of check.sh.
#
#   scripts/mutants.sh            (make mutants)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/dvm-mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git ls-files -co --exclude-standard -z | tar cf - --null -T - | tar xf - -C "$tmp"
git -C "$tmp" init -q # git apply then patches the copy, whatever encloses it

start=$(date +%s)
status=0
for patch in testdata/mutants/*.patch; do
	sed -n 's/^# check: //p' "$patch" | head -n 1
done | sort -u >"$tmp/.checks"
while IFS= read -r check; do
	if ! (cd "$tmp" && bash -c "$check") </dev/null >"$tmp/.log" 2>&1; then
		echo "mutants: '$check' fails on the unmutated tree:" >&2
		tail -n 20 "$tmp/.log" | sed 's/^/   /' >&2
		status=1
	fi
done <"$tmp/.checks"
if [ $status -ne 0 ]; then
	exit $status
fi
for patch in testdata/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	check=$(sed -n 's/^# check: //p' "$patch" | head -n 1)
	if [ -z "$check" ]; then
		echo "mutants: $name has no '# check: ' line" >&2
		status=1
		continue
	fi
	if ! (cd "$tmp" && git apply "$root/$patch" 2>"$tmp/.apply"); then
		echo "mutants: $name no longer applies:" >&2
		sed 's/^/   /' "$tmp/.apply" >&2
		status=1
		continue
	fi
	if (cd "$tmp" && bash -c "$check") >"$tmp/.log" 2>&1; then
		echo "SURVIVED $name: '$check' passed"
		tail -n 20 "$tmp/.log" | sed 's/^/   /'
		status=1
	else
		echo "killed   $name: '$check' failed"
	fi
	git -C "$tmp" apply -R "$root/$patch"
done
echo "mutants: wall clock $(($(date +%s) - start))s"
exit $status
