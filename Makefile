GO ?= go

.PHONY: build test lint doccheck check fuzz profile pair allocprof mutants flakes

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...

# Resolve every symbol anchor and relative link in the docs.
doccheck:
	$(GO) run ./cmd/doccheck

# The expanded tier-1 gate: build + vet + doccheck + race
# tests + the nested perf/ module's self-check + bounded fuzzing. Same
# battery as scripts/check.sh.
check:
	./scripts/check.sh

# Capture labeled CPU + heap profiles of the Policy-2 retail day
# (BenchmarkRetailDay) into profiles/ (untracked) and print the
# per-label CPU split (`go tool pprof -tags`).
profile:
	./scripts/profile.sh

# The paired-run protocol behind a performance claim: N (default 10)
# alternating runs of the perf benchmark at PARENT and in the working
# tree per workload, medians with quartiles, pairs won, PASS by the 9/10
# + IQR rule. About a minute per pair; not part of `make check`.
#   make pair PARENT=HEAD~1 [N=10] [WORKLOADS="multiview_writes sql_day"] [PAIRFLAGS="-trace 1"]
pair:
	./scripts/pair.sh $(PAIRFLAGS) $(PARENT) $(or $(N),10) $(WORKLOADS)

# Where one perf workload's measured cycles allocate, and what is live
# at the end: runs a patched throw-away copy of perf/ (perf/ itself is
# untouched) and leaves the two allocs profiles in profiles/. With BASE,
# the committed tree at that ref too, and a -diff_base table of the
# measured cycles against it. With LIST, both views again line by line
# for the functions the regexp matches. About half a minute per tree;
# not part of `make check`.
#   make allocprof WORKLOAD=multiview_writes [SEED=1] [BASE=HEAD~1] [LIST='bag\.newIndex']
allocprof:
	./scripts/allocprof.sh $(if $(BASE),-base $(BASE)) $(WORKLOAD) $(or $(SEED),1) $(LIST)

# The kept mutants: each testdata/mutants/*.patch seeds a bug into a
# throw-away copy of the tree, and the check named in its header must
# fail there. Fails if a mutant survives or a patch no longer applies.
# About a minute; not part of `make check`.
mutants:
	./scripts/mutants.sh

# The measuring tests under load: every test matching
# 'Alloc|Heap|Profile|Frees|LiveBytes' runs 50 times while one
# `go test ./...` loads the machine; prints failures per test and fails
# if any run failed. A few minutes; not part of `make check`.
flakes:
	./scripts/flakes.sh

fuzz:
	$(GO) test ./internal/schema -run '^$$' -fuzz '^FuzzValue$$' -fuzztime=30s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzExprParseEval$$' -fuzztime=30s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzCompiledEval$$' -fuzztime=30s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzLogFilter$$' -fuzztime=30s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzKernel$$' -fuzztime=30s
	$(GO) test ./internal/bag -run '^$$' -fuzz '^FuzzBagOps$$' -fuzztime=30s
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=30s
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzEngineExec$$' -fuzztime=30s
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime=30s
