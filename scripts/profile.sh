#!/usr/bin/env bash
# profile.sh — capture labeled CPU + heap profiles of the Policy-2
# retail day (also `make profile`).
#
# Runs `dvmbench -exp day` under -cpuprofile/-memprofile and leaves
# the profiles in profiles/ (untracked). The bench prints a
# dvm_view/dvm_phase attribution summary; drill down with
#   go tool pprof -tags profiles/cpu.pprof
# or by phase:
#   go tool pprof -focus-tags dvm_phase=propagate profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-profiles}"
mkdir -p "$OUT"

echo "== dvmbench -exp day (profiling to $OUT/)"
go run ./cmd/dvmbench -exp day \
    -cpuprofile "$OUT/cpu.pprof" \
    -memprofile "$OUT/heap.pprof"

echo "profile.sh: wrote $OUT/cpu.pprof and $OUT/heap.pprof"
