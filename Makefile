# Single entry points shared by CI (.github/workflows/ci.yml) and humans.

GO ?= go
OUT ?= bench-out

.PHONY: build vet test race race-diff race-shard race-serve serve-smoke serve-load bench-smoke bench bench-engine bench-incpower bench-obs bench-kernel fuzz-kernel fuzz-exact fuzz-graph fuzz-congest sweep sweep-scale sweep-power-smoke sweep-kernel sweep-sparsify sweep-mega sweep-mega-smoke trace-smoke sparsify-smoke docs-check clean

build:
	$(GO) build ./...

# gofmt -l lists every tracked Go file whose formatting differs; any output
# fails the target (and the CI vet step) before go vet runs.
vet:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

test: vet docs-check
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detector pass over the shard differentials (sequential vs sharded
# sweeps of the engine, the primitives and every registry algorithm), the
# step programs held to their recorded blocking references, the
# restarted-vs-fresh step primitives, and the idle-skip differentials
# (skipping vs stepped runs at shards 1 and 3) only (small n, a few
# minutes) — the CI race job. Shards > 1 are where the engine runs node
# steps concurrently.
race-diff:
	$(GO) test -race -count=1 \
		-run 'TestEngineDifferential|TestEngineAxisSweepIsDifferential|TestStep.*MatchesBlocking|TestStepPrimitivesRestartMatchesFresh|TestRHopPrimitivesMatchBFSReference|TestSharded|TestIdleSkip|SkipMatchesStepped|TestSilentHopMax|ElectsMinimum' \
		./internal/congest/... ./internal/core/ ./internal/harness/

# Race-detector pass over the shard barrier specifically: the sharded
# engine's worker pool under adversarial shard sizes (empty shards, one-node
# shards), plus the harness-level sharded determinism differential — the CI
# race-shard job.
race-shard:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestNegativeShardsRejected' \
		./internal/congest/ ./internal/harness/

# Race-detector pass over the serving layer: the churn property tests
# (incremental Gʳ maintenance byte-identical to full recomputes, shard
# invariance on churned instances), the component-cached exact solver,
# the overlay/incremental-power graph layer, and harness cancellation — the
# CI serve-smoke job's second leg.
race-serve:
	$(GO) test -race -count=1 \
		-run 'TestChurn|TestIncremental|TestOverlay|TestRunLoadSmoke|TestSolveInstance|TestCancel|TestServer' \
		./internal/serve/ ./internal/graph/ ./internal/kernel/ ./internal/harness/ ./internal/congest/

# Serving-layer smoke: the full HTTP surface against golden responses
# (including the no-leaked-goroutines check), validation and NDJSON churn
# paths, and the load-generator accounting invariants.
serve-smoke:
	$(GO) test -count=1 -run 'TestServer|TestSolveCanceled|TestRunLoadSmoke|TestLoadLoadSpec' ./internal/serve/

# Sustained mixed-load benchmark against an in-process server (regenerates
# BENCH_serve.json: QPS plus per-endpoint p50/p95 under concurrent solve +
# churn traffic).
serve-load:
	$(GO) run ./cmd/powerserve -load specs/serve-load.json -out BENCH_serve.json

# The end-to-end benchmark's own smoke and gate tests. benchmark/ is a
# separate Go module (it replaces powergraph with this checkout), so the
# root `go test ./...` does not reach it.
bench-smoke:
	$(GO) -C benchmark test -count=1 ./...

# Go micro-benchmarks (bench_test.go and friends).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# The engine's hot loop in ns/node-round: full neighbor exchange
# ("program"), CONGESTED CLIQUE all-node broadcast ("clique"), steps
# with no sends ("quiet"), and a broadcast every tenth round with the nine
# rounds between promised idle and skipped ("idle") (see
# internal/congest/bench_test.go).
bench-engine:
	$(GO) test -bench=BenchmarkEngineModes -benchmem -run='^$$' ./internal/congest/

# Splice-vs-rebuild grid for incremental Gʳ maintenance: one churn batch of
# 8/64/512 edits on sparse n = 20k/80k graphs at r = 2, 3, brought up to date
# by graph.IncrementalPower against a full Power(r) (ns/op and B/op; the
# data behind the n/2 full-rebuild fallback).
bench-incpower:
	$(GO) test -bench=BenchmarkIncrementalPower -benchmem -run='^$$' ./internal/graph/

# Observability overhead on the engine hot loop: nil tracer ("off") vs
# span-only vs full per-round accounting (see
# internal/congest/bench_obs_test.go). The "off" rows are directly comparable
# to bench-engine's "program" rows — the disabled-tracer contract is <2% and zero
# added allocations.
bench-obs:
	$(GO) test -bench=BenchmarkObs -benchmem -run='^$$' ./internal/congest/

# Kernelize-then-solve vs the raw branch and bound on leader-shaped
# instances (squares of sparse graphs): solve time, search nodes, kernel
# size after reductions, and whether the raw search exhausts the stress
# budget; the reduction rules alone (KernelizeOnly) on the squares of
# weighted 2000- and 20 000-vertex trees, the larger the oracle's shape;
# then the raw search alone on G² of G(150, c/150): nodes and ns/node per
# call, with allocs/op flat in the node count.
bench-kernel:
	$(GO) test -bench='BenchmarkKernel' -benchmem -run='^$$' ./internal/kernel/
	$(GO) test -bench='BenchmarkVertexCoverSearch' -benchmem -run='^$$' ./internal/exact/

# Short fuzz pass over the kernel lift invariants (feasibility + LP lower
# bound on arbitrary graph encodings) — the CI smoke configuration.
fuzz-kernel:
	$(GO) test -run='^$$' -fuzz=FuzzKernelLiftFeasible -fuzztime=20s ./internal/kernel/

# Short fuzz pass over the exact searches themselves, vertex cover and set
# cover through the dominating-set entry points (brute-force optimality,
# repeat-call determinism, 1-node budget trips, best-so-far covers) — the
# CI smoke configuration.
fuzz-exact:
	$(GO) test -run='^$$' -fuzz=FuzzVertexCoverSearch -fuzztime=20s ./internal/kernel/

# Short fuzz pass over the edge-list decoder the server runs on untrusted
# bodies (an error or a graph within the vertex limit, and a lossless
# write/re-read round trip) — the CI smoke configuration.
fuzz-graph:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeListLimit -fuzztime=20s ./internal/graph/

# Short fuzz pass over the change-only hop maximum (small random graphs,
# mostly-zero values, hops 1–4, natural and fixed widths): the centralized
# k-hop maximum, the exact message count the silence rule allows, and
# stepped = skipping runs — the CI smoke configuration.
fuzz-congest:
	$(GO) test -run='^$$' -fuzz=FuzzSilentHopMax -fuzztime=20s ./internal/congest/primitives/

# Full scenario sweep through the experiment harness; override SPEC to point
# at another matrix, e.g. `make sweep SPEC=specs/power-sweep.json`.
SPEC ?= specs/podc20-sweep.json
sweep:
	$(GO) run ./cmd/powerbench -spec $(SPEC) -out $(OUT)

# Thousand-node sweep over all seven distributed algorithms at r = 2, 3
# (regenerates BENCH_scale.json; single worker so per-job wall clocks are
# uncontended).
sweep-scale:
	$(GO) run ./cmd/powerbench -spec specs/step-sweep.json -workers 1 -out $(OUT)

# CI gate for the (algorithm × power) matrix: a small distributed power
# sweep (n ≤ 200, r = 1…4) that fails on any job error or any
# solution that is not a feasible cover/dominating set of its Gʳ.
sweep-power-smoke:
	$(GO) run ./cmd/powerbench -spec specs/power-smoke.json -strict -quiet -out $(OUT)

# The kernelize-then-solve sweep (and its CI gate): randomized + weighted
# variants at n = 500…2000 with the kernel-exact leader solver and true
# optimum-checked ratios at every size (regenerates BENCH_kernel.json).
sweep-kernel:
	$(GO) run ./cmd/powerbench -spec specs/kernel-sweep.json -strict -quiet -out $(OUT)

# The StepSparsify certificate gather at r ∈ {3, 4}, n = 500…2000, 36 jobs
# (regenerates BENCH_sparsify.json, whose gatherMessages cells price the
# Phase-II gather). It exits 1 after writing: 5 leader solves take the
# kernel-fallback path, which -strict counts as failure — mvc-congest-rand
# at r = 3, n ∈ {1000, 2000} on both generators, and the weighted
# mwvc-congest at n = 2000, r = 3.
sweep-sparsify:
	$(GO) run ./cmd/powerbench -spec specs/sparsify-sweep.json -strict -quiet -out $(OUT)

# CI gate for the certificate gather: the sparsify matrix at smoke sizes
# (r ∈ {3, 4}) under -strict, with per-job traces validated by powertrace —
# any infeasible Gʳ solution or malformed phase2-sparsify span fails the
# run.
sparsify-smoke:
	$(GO) run ./cmd/powerbench -spec specs/sparsify-smoke.json -strict -quiet \
		-out $(OUT) -trace $(OUT)/sparsify-traces
	$(GO) run ./cmd/powertrace -check $(OUT)/sparsify-traces

# Large-n sweeps over the sharded engine (regenerate BENCH_mega.json
# and BENCH_mega-1m.json): MDS end to end plus the MVC Lemma-6 shortcut
# rows on a sparse 100k instance with a shard-count axis, then the 300k
# and million-node shortcut cells. Expect about a minute and a half for
# the 100k cells on a 2-vCPU host (the MDS cell took 47 s at shards 1 and
# 41 s at shards 8, with most of its Θ(log²n·logΔ) phases skipped as idle
# once every vertex is covered) and well under a minute for the shortcut cells;
# see ARCHITECTURE.md on when sharding pays.
sweep-mega:
	$(GO) run ./cmd/powerbench -spec specs/mega-sweep.json -workers 1 -out $(OUT)
	$(GO) run ./cmd/powerbench -spec specs/mega-1m.json -workers 1 -out $(OUT)

# CI gate for the mega path: the million-node sharded-engine smoke
# (fixed-size worker pool, sequential-identical output at n = 10⁶) plus one
# seeded 100k-vertex MDS cell asserted against the golden summary (rounds,
# messages, solution size) pinned in internal/harness/mega_test.go. The two
# packages run one after the other (-p 1): side by side, their test binaries
# together exceed an 8 GB host and the million-node one gets killed.
sweep-mega-smoke:
	MEGA_SMOKE=1 $(GO) test -p 1 -count=1 -timeout 45m \
		-run 'TestShardedMillionNodes|TestMegaGoldenSummary' \
		./internal/congest/ ./internal/harness/

# Tracing gate: the power-smoke matrix with per-job trace files on, then
# powertrace validating every file end to end (typed records, sealed files,
# monotone-complete rounds, closed spans, totals matching run-end).
trace-smoke:
	$(GO) run ./cmd/powerbench -spec specs/power-smoke.json -strict -quiet \
		-out $(OUT) -trace $(OUT)/traces
	$(GO) run ./cmd/powertrace -check $(OUT)/traces

# Documentation gate: every package under internal/ must carry a package
# comment (a "// Package <name> ..." line somewhere in the package); every
# BENCH_*.json that a tracked *.md, Go file or this Makefile cites by bare
# name must be in the tree (names under a directory, like
# bench-out/BENCH_x.json, are run outputs and are skipped); and every *.md
# those files cite must exist, relative to the repository root or to the
# citing file. CHANGES.md (a history log) and ISSUE.md (the open work
# request) name files that are gone on purpose and are not checked for
# *.md citations.
docs-check:
	@fail=0; \
	for d in internal/*/ internal/congest/primitives/; do \
		p=$$(basename $$d); \
		if ! grep -qs "^// Package $$p" $$d*.go; then \
			echo "docs-check: package $$p ($$d) has no package comment"; fail=1; \
		fi; \
	done; \
	for f in $$(git ls-files '*.md' '*.go' Makefile | xargs grep -hoE '(^|[^/A-Za-z0-9_.<*-])BENCH_[A-Za-z0-9_.-]+\.json' | \
		grep -oE 'BENCH_[A-Za-z0-9_.-]+\.json' | sort -u); do \
		if [ ! -f $$f ]; then \
			echo "docs-check: $$f is cited but not in the tree"; fail=1; \
		fi; \
	done; \
	for src in $$(git ls-files '*.md' '*.go' Makefile | grep -vxE 'CHANGES.md|ISSUE.md'); do \
		for f in $$(grep -oE '(^|[^A-Za-z0-9_./-])[A-Za-z0-9_.-][A-Za-z0-9_./-]*\.md([^A-Za-z0-9_]|$$)' $$src | \
			sed -E 's/^[^A-Za-z0-9_.-]//; s/[^A-Za-z0-9_]$$//' | sort -u); do \
			if [ ! -f $$f ] && [ ! -f $$(dirname $$src)/$$f ]; then \
				echo "docs-check: $$f is cited in $$src but not in the tree"; fail=1; \
			fi; \
		done; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-check: all internal packages documented, all cited BENCH and .md files present"; \
	exit $$fail

clean:
	rm -rf $(OUT)
