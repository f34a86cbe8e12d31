#!/usr/bin/env bash
# check.sh — the expanded tier-1 gate (see ROADMAP.md).
#
# Runs the full static + dynamic battery: build, gofmt, vet, the docs
# link-and-anchor checker, the unit/property suite under the race
# detector, the nested perf/ module's vet + self-check, and a bounded
# run of each fuzz target.
# Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== gofmt -l"
# Every Go file in the tree, the nested perf/ module included, must be
# gofmt'd: any file listed fails the gate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted" | sed 's/^/   /'
	echo "check.sh: gofmt -l lists the files above; run gofmt -w on them" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== doccheck (README.md docs/*.md DESIGN.md EXPERIMENTS.md)"
go run ./cmd/doccheck

echo "== go test -race"
go test -race ./...

echo "== perf self-check"
# perf/ is a nested module (dvm/perf), so the root `go vet ./...` and
# `go test ./...` above skip it. Its tests are the benchmark's
# determinism + stationarity self-check and the BENCHMARK.json<->spec.go
# 1:1 (~2 s): an engine change that breaks either shows up here, not
# first in the benchmark pipeline.
(cd perf && go vet ./... && go test ./...)

echo "== fuzz (bounded)"
# The packed schema.Value against its plain three-field reference:
# accessors, Compare, key encoding, on arbitrary bit patterns and bytes.
go test ./internal/schema -run '^$' -fuzz '^FuzzValue$' -fuzztime=10s
go test ./internal/algebra -run '^$' -fuzz '^FuzzExprParseEval$' -fuzztime=10s
go test ./internal/algebra -run '^$' -fuzz '^FuzzCompiledEval$' -fuzztime=10s
# RelevantFilters' contract: Q ≡ Q[σ_f(R)/R] for every derived filter f,
# on decoded queries and states.
go test ./internal/algebra -run '^$' -fuzz '^FuzzLogFilter$' -fuzztime=10s
# A column against a constant runs as the constant type's kernel: it
# must answer as Value.Compare does, on arbitrary values, either side.
go test ./internal/algebra -run '^$' -fuzz '^FuzzKernel$' -fuzztime=10s
# Under -race, checkptr validates every tuple a bag rebuilds from its
# one-pointer entry (schema.TupleAt) on fuzzed programs.
go test -race ./internal/bag -run '^$' -fuzz '^FuzzBagOps$' -fuzztime=10s
# The same programs under a hash narrowed to two bits: every bag path
# meets tuples that share a hash, and the spill that holds them.
go test -race ./internal/bag -run '^$' -fuzz '^FuzzBagOpsColliding$' -fuzztime=10s
go test ./internal/sql -run '^$' -fuzz '^FuzzParse$' -fuzztime=10s
# The one fuzzer that maintains a SQL-defined COMBINED view (PROPAGATE /
# REFRESH + CHECK INVARIANT) — the path whose plan comes from sql.compile.
go test ./internal/sql -run '^$' -fuzz '^FuzzEngineExec$' -fuzztime=10s
# Hostile snapshot bytes (DVM1 through storage.Load, DVME through
# LoadEngine; a retired DVM2 stream must error): an error or a save/load
# fixpoint, never a panic, never more allocated by decoding than a
# constant plus a small multiple of the bytes. Under -race, checkptr
# validates every tuple rebuilt from a pointer into one of bag.Build's
# shared slabs.
go test -race ./internal/sql -run '^$' -fuzz '^FuzzSnapshotLoad$' -fuzztime=10s

echo "check.sh: all gates passed"
