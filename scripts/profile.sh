#!/usr/bin/env bash
# profile.sh — capture labeled CPU + heap profiles of the Policy-2
# retail day (also `make profile`).
#
# Runs BenchmarkRetailDay (three days) under -cpuprofile/-memprofile,
# leaves the profiles and the test binary in profiles/ (untracked), and
# prints the CPU split by pprof label (dvm_view, dvm_phase). Drill down
# by phase with
#   go tool pprof -focus-tags dvm_phase=propagate profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-profiles}"
mkdir -p "$OUT"

echo "== BenchmarkRetailDay (profiling to $OUT/)"
go test -run '^$' -bench '^BenchmarkRetailDay$' -benchtime 3x \
    -cpuprofile "$OUT/cpu.pprof" -memprofile "$OUT/heap.pprof" \
    -o "$OUT/dvm.test" .

echo "== CPU by label"
go tool pprof -tags "$OUT/cpu.pprof"

echo "profile.sh: wrote $OUT/cpu.pprof and $OUT/heap.pprof"
