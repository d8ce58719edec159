package harness

import (
	"context"
	"fmt"
	"sort"

	"powergraph/internal/bitset"
	"powergraph/internal/centralized"
	"powergraph/internal/core"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// Model names the computation model an algorithm runs in.
const (
	ModelCongest     = "congest"
	ModelClique      = "clique"
	ModelCentralized = "centralized"
)

// Problem names what the algorithm computes on the power graph.
const (
	ProblemMVC = "mvc"
	ProblemMDS = "mds"
)

// Algorithm is a registry entry: one of the paper's distributed algorithms
// or a centralized baseline, adapted to the harness job signature.
type Algorithm struct {
	Name    string
	Model   string
	Problem string
	// Description is the one-line summary printed by powerbench -list.
	Description string
	// NeedsEps marks (1+ε)-style algorithms; the spec's ε grid only
	// multiplies jobs for these.
	NeedsEps bool
	// AnyPower marks algorithms that accept any r ≥ 1 (the centralized
	// baselines, which run on the materialized Gʳ).
	AnyPower bool
	// MinPower/MaxPower bound the supported power range for entries that
	// are not AnyPower. Both zero means the legacy "exactly r = 2" gate
	// (kept for entries whose guarantee is square-specific, e.g. the
	// centralized 5/3-approximation). The distributed algorithms serve
	// r ∈ [1, 4]: they communicate over G and build their solution on Gʳ
	// via the parametric collectives of congest/primitives.
	MinPower, MaxPower int
	// Exact marks entries whose own output is the optimum; the harness
	// oracle reuses their cost instead of solving the instance twice.
	Exact bool
	// Spans declares the phase-span names this algorithm may emit when
	// traced — the superset over every supported power; any one
	// run closes a subset (r = 1 skips Phase I entirely, for instance). Nil
	// for centralized baselines, which never touch the simulator.
	// TestRegistryTraceConformance pins emitted ⊆ declared.
	Spans []string
	// Estimator states, per power, how exactly the algorithm's distributed
	// aggregation reconstructs what it claims (the Gʳ[U] remainder for the
	// leader algorithms, the vote minimum for the Theorem-28 estimator) —
	// powerbench -list surfaces it so exact-vs-conservative is visible per
	// entry. Empty for centralized baselines.
	Estimator string
	// Run executes the algorithm for the job's power/epsilon.  g is the
	// communication graph; power is the pre-materialized Gʳ (centralized
	// baselines run on it directly — the distributed algorithms ignore it
	// and communicate over G only).  Centralized baselines report zero
	// simulator stats and ignore tr, the job's tracer (nil = untraced).
	// ctx cancels an in-flight distributed run at its next round barrier
	// (core.Options.Ctx); centralized baselines ignore it.
	Run func(ctx context.Context, g, power *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error)
}

// SupportsPower reports whether the algorithm can serve power r.
func (a *Algorithm) SupportsPower(r int) bool {
	if a.AnyPower {
		return r >= 1
	}
	if a.MinPower == 0 && a.MaxPower == 0 {
		return r == 2
	}
	return r >= a.MinPower && r <= a.MaxPower
}

// PowersLabel renders the supported power range for listings and skip
// diagnostics ("any", "1-4", or "2").
func (a *Algorithm) PowersLabel() string {
	switch {
	case a.AnyPower:
		return "any"
	case a.MinPower == 0 && a.MaxPower == 0:
		return "2"
	case a.MinPower == a.MaxPower:
		return fmt.Sprintf("%d", a.MinPower)
	default:
		return fmt.Sprintf("%d-%d", a.MinPower, a.MaxPower)
	}
}

// distPowers is the power range every distributed registry entry serves,
// exercised end to end by the cross-power differential suite
// (power_differential_test.go) and the power-smoke CI sweep.
const (
	distMinPower = 1
	distMaxPower = 4
)

func distOpts(ctx context.Context, job Job, tr obs.Tracer) (*core.Options, error) {
	solver, err := parseLocalSolver(job.LocalSolver)
	if err != nil {
		return nil, err
	}
	gather, err := parseGather(job.Gather)
	if err != nil {
		return nil, err
	}
	return &core.Options{
		Ctx:             ctx,
		Seed:            job.Seed,
		Shards:          job.Shards,
		BandwidthFactor: job.BandwidthFactor,
		MaxRounds:       job.MaxRounds,
		Power:           job.Power,
		LocalSolver:     solver,
		Gather:          gather,
		Tracer:          tr,
	}, nil
}

// Span taxonomies shared by the registry entries (see Algorithm.Spans and
// the Observability section of ARCHITECTURE.md). The congest pipeline
// algorithms run Phase II through StepLeaderPipeline (BFS tree + convergecast
// over G); the clique algorithms gather at the leader in O(1) hops and have
// no tree.
// "phase2-sparsify" is the default near-U certificate labeling of the
// generalized Phase II (power ≠ 2); "phase2-near" is its GatherLegacy
// counterpart, the PR-4 one-bit near flood.
var (
	pipelineSpans = []string{
		"phase1", "phase1-iter", "phase2-sparsify", "phase2-near",
		"leader-elect", "bfs-tree", "phase2-gather", "leader-solve", "phase2-flood",
	}
	cliqueSpans = []string{
		"phase1", "phase1-iter", "phase2-sparsify", "phase2-near",
		"leader-elect", "phase2-gather", "leader-solve", "phase2-flood",
	}
	mdsSpans = []string{"mds-phase", "mds-estimate", "mds-votes"}
)

// LocalSolverInfo describes one value of the spec/job localSolver knob for
// listings (powerbench -list) and flag help.
type LocalSolverInfo struct {
	Name, Description string
}

// LocalSolverInfos lists the localSolver knob values with their one-line
// summaries, in display order. parseLocalSolver and this list must stay in
// step (TestLocalSolverRegistryInSync enforces it).
func LocalSolverInfos() []LocalSolverInfo {
	return []LocalSolverInfo{
		{"kernel-exact", "kernelize-then-solve ladder (default): reduction rules + bounded branch and bound + local-ratio fallback"},
		{"exact", "legacy raw branch and bound (exponential worst case; the pre-kernel default)"},
		{"five-thirds", "Corollary 17's polynomial 5/3-approximation (r = 2 guarantee)"},
	}
}

// LocalSolverNames lists the spec/job localSolver knob values.
func LocalSolverNames() []string {
	infos := LocalSolverInfos()
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return names
}

// parseLocalSolver maps a job/spec solver name to a core.LocalSolver; nil
// means "the algorithm's default", which since the kernelize-then-solve
// subsystem landed is exactly "kernel-exact" (reduction rules + bounded
// branch and bound + polynomial fallback). "exact" pins the legacy raw
// branch and bound — the pre-kernel default, kept for regression baselines
// and the leader-ceiling stress test.
func parseLocalSolver(name string) (core.LocalSolver, error) {
	switch name {
	case "", "kernel-exact":
		return nil, nil
	case "exact":
		return exact.VertexCover, nil
	case "five-thirds":
		return func(h *graph.Graph) *bitset.Set {
			return centralized.FiveThirdsOnGraph(h).Cover
		}, nil
	default:
		return nil, fmt.Errorf("harness: unknown local solver %q (want one of %v)", name, LocalSolverNames())
	}
}

// GatherInfo describes one value of the spec/job gather knob for listings
// (powerbench -list) and flag help.
type GatherInfo struct {
	Name, Description string
}

// GatherInfos lists the gather knob values with their one-line summaries, in
// display order. parseGather and this list must stay in step
// (TestGatherRegistryInSync enforces it).
func GatherInfos() []GatherInfo {
	return []GatherInfo{
		{"sparsified", "bounded-round StepSparsify certificate gather (default): near nodes ship a deduped edge subset preserving Gʳ[U] exactly"},
		{"legacy", "PR-4 wire format: one-bit near flood, every near node ships all incident edges (r = 2 always uses the paper's F-edge path)"},
	}
}

// GatherNames lists the spec/job gather knob values.
func GatherNames() []string {
	infos := GatherInfos()
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return names
}

// CheckEngine validates the engine name a spec (engineModes), a Job, or a
// serve solve request may still carry. The simulator has one engine, so ""
// and "batch" (its name) are accepted and change nothing; every other value
// is rejected. It is the only reader of those fields.
func CheckEngine(name string) error {
	if name == "" || name == "batch" {
		return nil
	}
	return fmt.Errorf("harness: engine %q: the goroutine engine was removed; omit the engine or use \"batch\", the only engine", name)
}

// parseGather maps a job/spec gather-mode name to a core.GatherMode; the
// empty name is the sparsified default. r = 2 ignores the knob entirely (the
// paper's F-edge wire format is the only r = 2 path).
func parseGather(name string) (core.GatherMode, error) {
	switch name {
	case "", "sparsified":
		return core.GatherSparsified, nil
	case "legacy":
		return core.GatherLegacy, nil
	default:
		return 0, fmt.Errorf("harness: unknown gather mode %q (want one of %v)", name, GatherNames())
	}
}

// Estimator statements shared by the distributed registry entries (see
// Algorithm.Estimator): every leader algorithm reconstructs Gʳ[U] exactly at
// every supported power, and the Theorem-28 vote estimator is exact at every
// power since the sparsified relay schedule replaced the conservative spread.
const (
	leaderEstimator = "exact Gʳ[U] at every r: paper F-edges at r=2, sparsified certificate gather otherwise"
	mdsEstimator    = "vote minima exact at every r: broadcast schedule at r<=2, routed relay schedule at r>=3 (conservative before sparsification)"
)

// centralizedResult wraps a plain solution as a core.Result with no
// communication cost, so sinks and aggregation treat both kinds uniformly.
func centralizedResult(sol *bitset.Set) *core.Result {
	return &core.Result{Solution: sol, PhaseISize: -1}
}

var algorithms = map[string]*Algorithm{
	"mvc-congest": {
		Name: "mvc-congest", Model: ModelCongest, Problem: ProblemMVC, NeedsEps: true,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: pipelineSpans, Estimator: leaderEstimator,
		Description: "Algorithm 1 (Thm 1): deterministic (1+eps)-approx Gʳ-MVC (O(n/eps) CONGEST rounds at r=2)",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMVCCongest(g, job.Epsilon, opts)
		},
	},
	"mvc-congest-rand": {
		Name: "mvc-congest-rand", Model: ModelCongest, Problem: ProblemMVC, NeedsEps: true,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: pipelineSpans, Estimator: leaderEstimator,
		Description: "Section 3.3: randomized voting Phase I in plain CONGEST (O(log n) heavy-neighborhood drain), Gʳ Phase II",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMVCCongestRandomized(g, job.Epsilon, opts)
		},
	},
	"mwvc-congest": {
		Name: "mwvc-congest", Model: ModelCongest, Problem: ProblemMVC, NeedsEps: true,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: pipelineSpans, Estimator: leaderEstimator,
		Description: "Theorem 7: deterministic (1+eps)-approx weighted Gʳ-MVC via ripe weight classes",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMWVCCongest(g, job.Epsilon, opts)
		},
	},
	"mvc-congest-53": {
		Name: "mvc-congest-53", Model: ModelCongest, Problem: ProblemMVC,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: pipelineSpans, Estimator: leaderEstimator,
		Description: "Corollary 17: 5/3-approx G²-MVC with polynomial local work (heuristic local solver at other r)",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			o, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			o.LocalSolver = func(h *graph.Graph) *bitset.Set {
				return centralized.FiveThirdsOnGraph(h).Cover
			}
			return core.ApproxMVCCongest(g, 0.5, o)
		},
	},
	"mvc-clique-det": {
		Name: "mvc-clique-det", Model: ModelClique, Problem: ProblemMVC, NeedsEps: true,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: cliqueSpans, Estimator: leaderEstimator,
		Description: "Corollary 10: deterministic (1+eps)-approx Gʳ-MVC (O(eps·n + 1/eps) CONGESTED CLIQUE rounds at r=2)",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMVCCliqueDeterministic(g, job.Epsilon, opts)
		},
	},
	"mvc-clique-rand": {
		Name: "mvc-clique-rand", Model: ModelClique, Problem: ProblemMVC, NeedsEps: true,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: cliqueSpans, Estimator: leaderEstimator,
		Description: "Theorem 11: randomized (1+eps)-approx Gʳ-MVC (O(log n + 1/eps) CONGESTED CLIQUE rounds at r=2)",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMVCCliqueRandomized(g, job.Epsilon, opts)
		},
	},
	"mds-congest": {
		Name: "mds-congest", Model: ModelCongest, Problem: ProblemMDS,
		MinPower: distMinPower, MaxPower: distMaxPower,
		Spans: mdsSpans, Estimator: mdsEstimator,
		Description: "Theorem 28: randomized O(log Δʳ)-approx Gʳ-MDS in polylog(n) CONGEST rounds (sketch estimator)",
		Run: func(ctx context.Context, g, _ *graph.Graph, job Job, tr obs.Tracer) (*core.Result, error) {
			opts, err := distOpts(ctx, job, tr)
			if err != nil {
				return nil, err
			}
			return core.ApproxMDSCongest(g, &core.MDSOptions{Options: *opts})
		},
	},
	"five-thirds": {
		Name: "five-thirds", Model: ModelCentralized, Problem: ProblemMVC,
		Description: "centralized 5/3-approximation for MVC on the materialized G²",
		Run: func(_ context.Context, _, power *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(centralized.FiveThirdsOnGraph(power).Cover), nil
		},
	},
	"gavril": {
		Name: "gavril", Model: ModelCentralized, Problem: ProblemMVC, AnyPower: true,
		Description: "centralized Gavril 2-approximation (maximal matching) on the materialized Gʳ",
		Run: func(_ context.Context, _, power *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(centralized.Gavril2Approx(power)), nil
		},
	},
	"all-vertices": {
		Name: "all-vertices", Model: ModelCentralized, Problem: ProblemMVC, AnyPower: true,
		Description: "trivial all-vertices cover (Lemma 6 upper bound)",
		Run: func(_ context.Context, g, _ *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(centralized.AllVerticesPowerMVC(g)), nil
		},
	},
	"greedy-mds": {
		Name: "greedy-mds", Model: ModelCentralized, Problem: ProblemMDS, AnyPower: true,
		Description: "centralized greedy set-cover ln(Δ)-approximation for MDS on Gʳ",
		Run: func(_ context.Context, _, power *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(exact.GreedyDominatingSet(power)), nil
		},
	},
	"exact": {
		Name: "exact", Model: ModelCentralized, Problem: ProblemMVC, AnyPower: true, Exact: true,
		Description: "exact MVC on Gʳ (exponential branch-and-bound; the ratio oracle)",
		Run: func(_ context.Context, _, power *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(exact.VertexCover(power)), nil
		},
	},
	"exact-mds": {
		Name: "exact-mds", Model: ModelCentralized, Problem: ProblemMDS, AnyPower: true, Exact: true,
		Description: "exact MDS on Gʳ (exponential set-cover solve; the ratio oracle)",
		Run: func(_ context.Context, _, power *graph.Graph, _ Job, _ obs.Tracer) (*core.Result, error) {
			return centralizedResult(exact.DominatingSet(power)), nil
		},
	},
}

// Info is a read-only view of one registry entry for listings (powerbench
// -list) and tests.
type Info struct {
	Name, Model, Problem, Description string
	NeedsEps, AnyPower, Exact         bool
	// Powers is the supported power range as a label ("any", "1-4", "2");
	// SupportsPower answers the per-r question from the copied bounds.
	Powers             string
	MinPower, MaxPower int
	// Spans is the declared phase-span taxonomy (nil for centralized
	// entries); powerbench -list renders it as its own column.
	Spans []string
	// Estimator is the per-power exactness statement of the algorithm's
	// distributed aggregation (empty for centralized entries).
	Estimator string
}

// SupportsPower reports whether the listed algorithm can serve power r.
func (i Info) SupportsPower(r int) bool {
	return (&Algorithm{AnyPower: i.AnyPower, MinPower: i.MinPower, MaxPower: i.MaxPower}).SupportsPower(r)
}

// AlgorithmInfos lists every registered algorithm's metadata, sorted by
// name.
func AlgorithmInfos() []Info {
	out := make([]Info, 0, len(algorithms))
	for _, name := range AlgorithmNames() {
		a := algorithms[name]
		out = append(out, Info{
			Name: a.Name, Model: a.Model, Problem: a.Problem, Description: a.Description,
			NeedsEps: a.NeedsEps, AnyPower: a.AnyPower, Exact: a.Exact,
			Powers: a.PowersLabel(), MinPower: a.MinPower, MaxPower: a.MaxPower,
			Spans: append([]string(nil), a.Spans...), Estimator: a.Estimator,
		})
	}
	return out
}

func lookupAlgorithm(name string) (*Algorithm, bool) {
	a, ok := algorithms[name]
	return a, ok
}

// AlgorithmNames lists the registered algorithms, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithms))
	for n := range algorithms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
