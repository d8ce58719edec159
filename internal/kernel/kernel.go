// Package kernel is the kernelize-then-solve subsystem behind the Phase-II
// leader solves: it shrinks minimum (weighted) vertex-cover and
// dominating-set instances to their hard core with exhaustive safeness-proven
// reduction rules before handing them to the exponential branch-and-bound
// solvers of internal/exact, and falls back to a polynomial approximation
// when even the kernel exceeds the search budget.
//
// The paper's algorithms assume unbounded local computation at the leader
// ("compute an optimal solution R* of the VC problem on H = G²[U]"). In
// practice that assumption was the repo's scale ceiling: on sparse graphs the
// randomized variants' candidacy threshold never fires, the leader receives
// essentially all of G², and the branch and bound must search all of it.
// Power-graph structure is exactly what classic kernelization
// (Nemhauser–Trotter LP decomposition, degree folding, domination) exploits
// best — squares of sparse graphs are triangle-rich and pendant-rich — so the
// kernel routinely collapses thousand-node leader instances to a few dozen
// hard vertices.
//
// The solve ladder of a Solver is:
//
//  1. direct: instances with n ≤ DirectN skip kernelization entirely and
//     run the unbounded exact search of internal/exact on the raw instance
//     (this is what keeps the golden r = 2, r = 3/4 and step-reference
//     fixtures byte-identical: kernelizing first would pick other optima
//     among equal-cost ones);
//  2. kernel-exact: reduction rules run to fixpoint (degree-0, zero-weight,
//     weighted pendant, weighted domination, twin merge, weighted degree-2
//     folding, Nemhauser–Trotter LP decomposition via max-flow on the
//     bipartite double cover), then branch and bound solves the kernel under
//     Config.MaxNodes search nodes and the solution is lifted back — still
//     an exact optimum;
//  3. kernel-fallback: if the budget trips, the weighted local-ratio
//     2-approximation (Bar-Yehuda–Even) covers the kernel in polynomial
//     time; the lift preserves feasibility and the Report says the result
//     is no longer guaranteed optimal.
//
// Every rule is individually safeness-tested (lifted solution optimal) and
// the whole pipeline is conformance-tested against the brute-force reference
// solvers on randomized instance families; FuzzKernelLiftFeasible
// additionally asserts lift feasibility and the LP lower bound on arbitrary
// graph encodings.
package kernel

import (
	"time"

	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// Solve paths reported by Report.Path.
const (
	// PathDirect marks an instance small enough (n ≤ DirectN) to be handed
	// to the unbounded exact search without kernelization.
	PathDirect = "direct"
	// PathKernelExact marks a kernelized instance whose kernel the
	// branch-and-bound solver cracked within budget: the lifted solution is
	// an exact optimum.
	PathKernelExact = "kernel-exact"
	// PathKernelFallback marks a kernelized instance whose kernel exhausted
	// the search budget: the kernel part of the lifted solution comes from
	// the polynomial local-ratio 2-approximation (VC) or the greedy
	// set-cover heuristic (DS).
	PathKernelFallback = "kernel-fallback"
)

const (
	// DirectN is the largest n the ladder's direct rung solves: the
	// unbounded exact search on the raw instance, without kernelization.
	DirectN = 64
	// DefaultMaxNodes is the default of Config.MaxNodes.
	DefaultMaxNodes = 300_000
)

// Config tunes a Solver. The zero value selects the defaults used by the
// distributed algorithms' Phase-II leaders.
type Config struct {
	// MaxNodes is the branch-and-bound search budget for the post-kernel
	// exact solve. 0 selects DefaultMaxNodes; negative means unlimited —
	// the solve is then always exact and never falls back, which is the
	// configuration the harness oracle runs with.
	MaxNodes int64
}

func (c Config) maxNodes() int64 {
	if c.MaxNodes == 0 {
		return DefaultMaxNodes
	}
	if c.MaxNodes < 0 {
		return 0 // exact.*Bounded treat 0 as unlimited
	}
	return c.MaxNodes
}

// RuleCounts tallies how often each reduction rule fired during one solve.
type RuleCounts struct {
	Deg0       int `json:"deg0,omitempty"`
	ZeroWeight int `json:"zeroWeight,omitempty"`
	Pendant    int `json:"pendant,omitempty"`
	Domination int `json:"domination,omitempty"`
	Twin       int `json:"twin,omitempty"`
	Fold       int `json:"fold,omitempty"`
	NTForced   int `json:"ntForced,omitempty"`
	// Set-cover rules (dominating set only).
	UniqueCoverer int `json:"uniqueCoverer,omitempty"`
	SetDominated  int `json:"setDominated,omitempty"`
	ElemDominated int `json:"elemDominated,omitempty"`
}

// Map returns the nonzero rule counts keyed by their JSON names — the form
// the tracing subsystem embeds in kernel-solve events. Map keys marshal in
// sorted order, so the encoding is deterministic.
func (rc RuleCounts) Map() map[string]int {
	out := make(map[string]int)
	put := func(name string, v int) {
		if v != 0 {
			out[name] = v
		}
	}
	put("deg0", rc.Deg0)
	put("zeroWeight", rc.ZeroWeight)
	put("pendant", rc.Pendant)
	put("domination", rc.Domination)
	put("twin", rc.Twin)
	put("fold", rc.Fold)
	put("ntForced", rc.NTForced)
	put("uniqueCoverer", rc.UniqueCoverer)
	put("setDominated", rc.SetDominated)
	put("elemDominated", rc.ElemDominated)
	return out
}

// Report describes one solve: which path it took and how hard the instance
// really was. With the sole exception of the wall-clock ReduceNS/SolveNS
// fields (excluded from serialization), it is a pure function of the input
// graph, so identical instances yield identical reports on every engine and
// worker.
type Report struct {
	// Path is PathDirect, PathKernelExact, or PathKernelFallback.
	Path string `json:"path"`
	// InputN and InputM describe the instance as handed in.
	InputN int `json:"inputN"`
	InputM int `json:"inputM"`
	// KernelN and KernelM describe the kernel after all reductions
	// (0/0 when the rules solved the instance outright; InputN/InputM on
	// the direct path, which never kernelizes). For vertex cover they are
	// the kernel's vertex and edge counts; for dominating set, the
	// surviving candidate-set and universe-element counts of the set-cover
	// kernel.
	KernelN int `json:"kernelN"`
	KernelM int `json:"kernelM"`
	// ForcedCost is the solution weight committed by the reduction rules
	// alone (offset such that OPT(input) = OPT(kernel) + ForcedCost).
	ForcedCost int64 `json:"forcedCost"`
	// LowerBound is a proven lower bound on the optimum of the whole
	// instance (ForcedCost plus the kernel's LP bound for VC, the
	// element-packing bound for DS). Always ≤ Cost.
	LowerBound int64 `json:"lowerBound"`
	// Cost is the weight of the returned solution.
	Cost int64 `json:"cost"`
	// Optimal reports whether the returned solution is a guaranteed exact
	// optimum (true on the direct and kernel-exact paths).
	Optimal bool `json:"optimal"`
	// Rules tallies the reduction-rule applications.
	Rules RuleCounts `json:"rules"`
	// SearchNodes counts the branch-and-bound nodes the solve expanded
	// (deterministic: the search draws no randomness).
	SearchNodes int64 `json:"searchNodes,omitempty"`
	// ReduceNS and SolveNS are the wall-clock nanoseconds spent in the
	// reduction rules and in the post-kernel search respectively — the time
	// per ladder rung. Wall-clock and therefore machine-dependent: excluded
	// from JSON so serialized results stay deterministic (they surface only
	// through trace events).
	ReduceNS int64 `json:"-"`
	SolveNS  int64 `json:"-"`
}

// Solver runs the kernelize-then-solve ladder with fixed knobs. The zero
// value is ready to use (default knobs). A Solver carries configuration
// only: every call builds its own working state — the kernel's dense rows
// and degree counters once per call, the search's per-depth scratch once
// per search — and shares nothing with other calls, so one Solver may serve
// concurrent calls.
type Solver struct {
	cfg Config
	// kernelOnly skips the direct rung, so the rules and the lift are under
	// test on every instance size.
	kernelOnly bool
}

// NewSolver returns a Solver with the given knobs.
func NewSolver(cfg Config) *Solver { return &Solver{cfg: cfg} }

// direct reports whether g takes the direct rung.
func (s *Solver) direct(g *graph.Graph) bool {
	return !s.kernelOnly && g.N() <= DirectN
}

// VertexCover solves minimum (weighted) vertex cover on g through the
// ladder, returning the cover and the solve report.
func (s *Solver) VertexCover(g *graph.Graph) (*bitset.Set, Report) {
	rep := Report{InputN: g.N(), InputM: g.M()}
	if s.direct(g) {
		start := time.Now()
		cover, nodes, _ := exact.VertexCoverBounded(g, 0, nil)
		rep.SolveNS = time.Since(start).Nanoseconds()
		rep.SearchNodes = nodes
		rep.Path, rep.Optimal = PathDirect, true
		rep.KernelN, rep.KernelM = g.N(), g.M()
		rep.Cost = g.SetWeightOf(cover)
		rep.LowerBound = rep.Cost
		return cover, rep
	}

	reduceStart := time.Now()
	k := kernelizeVC(g, &rep.Rules)
	rep.ReduceNS = time.Since(reduceStart).Nanoseconds()
	rep.ForcedCost = k.offset
	kg, orig := k.kernelGraph()
	rep.KernelN, rep.KernelM = kg.N(), kg.M()
	rep.LowerBound = k.offset + k.lpLowerBound()

	solveStart := time.Now()
	kernelCover, nodes, err := exact.VertexCoverBounded(kg, s.cfg.maxNodes(), bestIncumbent(kg))
	rep.SolveNS = time.Since(solveStart).Nanoseconds()
	rep.SearchNodes = nodes
	rep.Path, rep.Optimal = PathKernelExact, true
	if err != nil {
		// Budget tripped: the search hands back its best-so-far cover,
		// which is never worse than the polynomial incumbent it was seeded
		// with — so the fallback keeps the local-ratio factor-2 guarantee
		// and any improvement the interrupted search already paid for.
		rep.Path, rep.Optimal = PathKernelFallback, false
	}
	cover := k.lift(kernelCover, orig)
	rep.Cost = g.SetWeightOf(cover)
	return cover, rep
}

// DominatingSet solves minimum (weighted) dominating set on g through the
// ladder: the instance is kernelized as weighted set cover (sets = closed
// neighborhoods), solved by branch and bound under the budget, and lifted.
func (s *Solver) DominatingSet(g *graph.Graph) (*bitset.Set, Report) {
	rep := Report{InputN: g.N(), InputM: g.M()}
	if s.direct(g) {
		start := time.Now()
		ds, nodes := exact.DominatingSetCounted(g)
		rep.SolveNS = time.Since(start).Nanoseconds()
		rep.SearchNodes = nodes
		rep.Path, rep.Optimal = PathDirect, true
		rep.KernelN, rep.KernelM = g.N(), g.M()
		rep.Cost = g.SetWeightOf(ds)
		rep.LowerBound = rep.Cost
		return ds, rep
	}

	reduceStart := time.Now()
	k := kernelizeDS(g, &rep.Rules)
	rep.ReduceNS = time.Since(reduceStart).Nanoseconds()
	rep.ForcedCost = k.offset
	inst, setIDs := k.kernelInstance()
	rep.KernelN, rep.KernelM = len(setIDs), inst.UniverseSize
	rep.LowerBound = k.offset + exact.SetCoverPackingBound(inst)

	solveStart := time.Now()
	chosen, nodes, err := exact.SetCoverBounded(inst, s.cfg.maxNodes())
	rep.SolveNS = time.Since(solveStart).Nanoseconds()
	rep.SearchNodes = nodes
	rep.Path, rep.Optimal = PathKernelExact, true
	if err != nil {
		chosen = exact.GreedySetCover(inst)
		rep.Path, rep.Optimal = PathKernelFallback, false
	}
	ds := k.lift(chosen, setIDs)
	rep.Cost = g.SetWeightOf(ds)
	return ds, rep
}

// VertexCover returns an exact minimum-weight vertex cover of g via the
// kernelize-then-solve pipeline with an unlimited search budget (kernelizing
// first is what lets this succeed on instances the raw branch and bound of
// internal/exact cannot crack). This is the harness oracle's solver.
func VertexCover(g *graph.Graph) *bitset.Set {
	cover, _ := NewSolver(Config{MaxNodes: -1}).VertexCover(g)
	return cover
}

// DominatingSet returns an exact minimum-weight dominating set of g via the
// kernelize-then-solve pipeline with an unlimited search budget.
func DominatingSet(g *graph.Graph) *bitset.Set {
	ds, _ := NewSolver(Config{MaxNodes: -1}).DominatingSet(g)
	return ds
}
