#!/usr/bin/env bash
# mutants.sh — the kept mutants: each testdata/mutants/*.patch seeds one
# bug that a named check must catch. Every patch is applied, one at a
# time, to a throw-away copy of the working tree (under $TMPDIR), and
# the command on its "# check: " header line is run there; the mutant
# is killed when that command fails. The script fails if a mutant
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
