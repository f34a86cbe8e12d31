#!/bin/sh
# loc.sh — the ROADMAP's line measure: non-test Go lines per package
# and in total, over the files git tracks, outside perf/ (a nested
# module, the benchmark) and testdata/ (analyzer fixtures).
#
#   scripts/loc.sh [ref]
#
# Without a ref it counts the working tree's tracked files; with one
# (a commit, a branch, HEAD~1) it counts that commit's files, read with
# `git show`, so a change reports the same number before and after it.
# One line per package directory, "lines<TAB>dir", sorted by directory,
# then "lines<TAB>total".
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1:-}
if [ -n "$ref" ]; then
	files=$(git ls-tree -r --name-only "$ref")
else
	files=$(git ls-files)
fi
printf '%s\n' "$files" |
	grep '\.go$' | grep -v '_test\.go$' | grep -v '^perf/' | grep -v '/testdata/' |
	while IFS= read -r f; do
		if [ -n "$ref" ]; then
			n=$(git show "$ref:$f" | wc -l)
		else
			n=$(wc -l <"$f")
		fi
		d=$(dirname "$f")
		printf '%s\t%s\n' "$d" "$n"
	done |
	awk -F '\t' '{ n[$1] += $2; t += $2 }
		END { for (d in n) printf "%d\t%s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%d\ttotal\n", t }'
