// Package core implements the paper's primary contributions as executable
// distributed algorithms on the CONGEST / CONGESTED CLIQUE simulator:
//
//   - Theorem 1: deterministic (1+ε)-approximate G²-MVC in O(n/ε) CONGEST
//     rounds (Algorithm 1);
//   - Theorem 7: deterministic (1+ε)-approximate G²-MWVC in O(n·log n/ε)
//     CONGEST rounds;
//   - Corollary 10: deterministic (1+ε)-approximate G²-MVC in O(εn + 1/ε)
//     CONGESTED CLIQUE rounds;
//   - Theorem 11: randomized (1+ε)-approximate G²-MVC in O(log n + 1/ε)
//     CONGESTED CLIQUE rounds via the voting scheme;
//   - Corollary 17: 5/3-approximate G²-MVC in O(n) CONGEST rounds with
//     polynomial-time local computation;
//   - Theorem 28: randomized O(log Δ)-approximate G²-MDS in polylog(n)
//     CONGEST rounds, simulating the [CD18] algorithm with the Lemma 29
//     2-hop cardinality estimator.
//
// All algorithms communicate over the input graph G only; the square G² is
// never materialized by the distributed code (only by checkers and local
// leader computations, as in the paper).
//
// Beyond the paper, every algorithm is generalized to arbitrary power
// graphs Gʳ via Options.Power (default r = 2, reproducing the paper's
// behavior bit for bit): Phase I is power-independent for r ≥ 2 and
// disabled at r = 1, Phase II rebuilds Gʳ[U] from the near-U edge gather of
// power_phase2.go, and the Theorem 28 estimator floods run at depth r. See
// ARCHITECTURE.md, "Parametric Gʳ collectives".
//
// Seeds fix the whole run, at any shard count. Every algorithm is written
// as a congest.StepProgram — each node's per-round logic is a plain
// function call — so the engine executes it with no per-node goroutines at
// all, which is what makes the n ≥ 2000 sweeps of specs/step-sweep.json
// practical. testdata/golden_step_ref.json pins every algorithm's
// solution and full simulator accounting on a wide instance set; it was
// recorded where equivalence tests proved each step program message for
// message equal to the blocking handler it replaced.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/graph"
	"powergraph/internal/kernel"
	"powergraph/internal/obs"
)

// LocalSolver computes a vertex cover of a (small, reconstructed) graph at
// the leader during Phase II. Algorithm 1 uses an exact-quality solver;
// Corollary 17 swaps in the centralized 5/3-approximation for polynomial
// local work. The default is the kernelize-then-solve ladder of
// internal/kernel: instances with at most kernel.DirectN vertices go
// straight to the exact search; larger ones get reduction rules, then
// bounded branch and bound, then a polynomial local-ratio fallback.
type LocalSolver func(*graph.Graph) *bitset.Set

// Options tune a distributed run. The zero value is ready to use.
type Options struct {
	// Ctx, when non-nil, cancels an in-flight simulation at its next round
	// barrier (congest.Config.Ctx): the run aborts with an error wrapping
	// congest.ErrCanceled and the context's cause. nil means never canceled.
	Ctx context.Context
	// Seed drives all node-local randomness (deterministic per seed).
	Seed int64
	// Shards splits the simulator's per-round node sweep across that many
	// workers (congest.Config.Shards). Output is byte-identical at any
	// shard count. Zero or one means the sequential sweep.
	Shards int
	// BandwidthFactor overrides the per-message budget multiplier
	// (B = factor·⌈log₂ n⌉ bits). Zero selects each algorithm's default.
	BandwidthFactor int
	// MaxRounds aborts runaway executions; zero selects the engine default.
	MaxRounds int
	// Power selects the graph power r the run targets: the solution is a
	// cover / dominating set of Gʳ while communication still happens over G
	// only. Zero selects the paper's default r = 2. r = 1 degenerates the
	// MVC/MWVC algorithms to a pure Phase II (1-hop neighborhoods are not
	// G¹-cliques, so Phase I's charging argument needs r ≥ 2); r ≥ 3 keeps
	// Phase I verbatim (a 1-hop neighborhood is a clique of every Gʳ with
	// r ≥ 2) and widens Phase II's reconstruction and the MDS estimator
	// floods to depth r. See ARCHITECTURE.md, "Parametric Gʳ collectives".
	Power int
	// LocalSolver overrides the leader's Phase-II solver (default: the
	// kernelize-then-solve ladder of internal/kernel).
	LocalSolver LocalSolver
	// CutA, when non-nil, makes the run report bits crossing the given
	// vertex cut (Section 5.1 instrumentation).
	CutA *bitset.Set
	// Tracer, when non-nil, receives engine round/span events plus the
	// leader's kernel-solve event (see internal/obs). nil disables tracing
	// at zero cost; an attached tracer never perturbs the seeded run.
	Tracer obs.Tracer
}

func (o *Options) localSolver() LocalSolver {
	s, _ := o.leaderSolver()
	return s
}

// leaderSolver resolves the Phase-II solver. For the default
// kernelize-then-solve path it also returns a report slot that the solver
// fills when the leader invokes it (nil for custom LocalSolvers, whose
// internals the core cannot see).
func (o *Options) leaderSolver() (LocalSolver, *kernel.Report) {
	if o != nil && o.LocalSolver != nil {
		return o.LocalSolver, nil
	}
	tr := o.tracer()
	ks := kernel.NewSolver(kernel.Config{})
	rep := new(kernel.Report)
	return func(h *graph.Graph) *bitset.Set {
		start := time.Now()
		cover, r := ks.VertexCover(h)
		*rep = r
		if tr != nil {
			tr.KernelSolve(obs.KernelSolveEvent{
				Path:        r.Path,
				InputN:      r.InputN,
				InputM:      r.InputM,
				KernelN:     r.KernelN,
				KernelM:     r.KernelM,
				SearchNodes: r.SearchNodes,
				ForcedCost:  r.ForcedCost,
				LowerBound:  r.LowerBound,
				Cost:        r.Cost,
				Optimal:     r.Optimal,
				Rules:       r.Rules.Map(),
				DurationNS:  time.Since(start).Nanoseconds(),
				ReduceNS:    r.ReduceNS,
				SolveNS:     r.SolveNS,
			})
		}
		return cover
	}, rep
}

func (o *Options) ctx() context.Context {
	if o == nil {
		return nil
	}
	return o.Ctx
}

func (o *Options) seed() int64 {
	if o == nil {
		return 0
	}
	return o.Seed
}

func (o *Options) shards() int {
	if o == nil {
		return 0
	}
	return o.Shards
}

func (o *Options) bandwidthFactor(def int) int {
	if o != nil && o.BandwidthFactor != 0 {
		return o.BandwidthFactor
	}
	return def
}

func (o *Options) maxRounds() int {
	if o == nil {
		return 0
	}
	return o.MaxRounds
}

// power resolves Options.Power, rejecting non-positive explicit values.
func (o *Options) power() (int, error) {
	if o == nil || o.Power == 0 {
		return 2, nil
	}
	if o.Power < 0 {
		return 0, fmt.Errorf("core: power must be ≥ 1, got %d", o.Power)
	}
	return o.Power, nil
}

func (o *Options) cutA() *bitset.Set {
	if o == nil {
		return nil
	}
	return o.CutA
}

func (o *Options) tracer() obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Result is the outcome of a distributed cover/dominating-set computation.
type Result struct {
	// Solution holds the selected vertices (cover or dominating set).
	Solution *bitset.Set
	// PhaseISize is the number of vertices committed during Phase I
	// (the set S of Algorithm 1); -1 when not applicable.
	PhaseISize int
	// FallbackJoins counts vertices that joined the MDS solution through
	// the unconditional-feasibility fallback after the w.h.p. phase budget
	// (0 w.h.p.; only set by ApproxMDSCongest).
	FallbackJoins int
	// LeaderSolve reports how the Phase-II leader solved its reconstructed
	// Gʳ[U] instance when the default kernelize-then-solve solver ran: the
	// path taken (direct / kernel-exact / kernel-fallback), kernel size,
	// and bounds. Nil for custom LocalSolvers and for runs without a leader
	// solve (MDS, the ε > 1 shortcut).
	LeaderSolve *kernel.Report
	// Stats is the simulator's cost accounting for the whole run.
	Stats congest.Stats
}

// nodeRunner drives a node program on the engine: congest.RunProgram in
// every algorithm entry point. The skip differential tests pass a runner
// that hides the programs' Skip methods, so that every round is stepped.
type nodeRunner func(congest.Config, func(*congest.Node) congest.StepProgram[nodeOut]) (*congest.Result[nodeOut], error)

// nodeOut is the per-node output assembled into a Result.
type nodeOut struct {
	InSolution bool
	InPhaseI   bool
}

func assemble(outs []nodeOut, stats congest.Stats) *Result {
	sol := bitset.New(len(outs))
	phase1 := 0
	for i, o := range outs {
		if o.InSolution {
			sol.Add(i)
		}
		if o.InPhaseI {
			phase1++
		}
	}
	return &Result{Solution: sol, PhaseISize: phase1, Stats: stats}
}

// assembleWithSolve is assemble plus the leader-solve report (attached only
// when the default solver actually ran — custom solvers pass nil, and a
// zero Path means the leader never invoked it).
func assembleWithSolve(outs []nodeOut, stats congest.Stats, solveRep *kernel.Report) *Result {
	res := assemble(outs, stats)
	if solveRep != nil && solveRep.Path != "" {
		res.LeaderSolve = solveRep
	}
	return res
}

// coverIDItems encodes a cover as the width-idw vertex-id messages Phase II
// floods back from the leader.
func coverIDItems(cover *bitset.Set, idw int) []congest.Message {
	var out []congest.Message
	cover.ForEach(func(v int) bool {
		out = append(out, congest.NewIntWidth(int64(v), idw))
		return true
	})
	return out
}

// uEdgeItems encodes node id's F-edge reports {id, u}, one per live
// neighbor u ∈ U, as the (v, u) pairs of Lemma 2's gather.
func uEdgeItems(n, id int, uNbrs []int) []congest.Message {
	items := make([]congest.Message, 0, len(uNbrs))
	for _, u := range uNbrs {
		items = append(items, congest.NewPair(n, int64(id), int64(u)))
	}
	return items
}

// epsilonToL converts ε into the paper's l = ⌈1/ε⌉ so that ε' = 1/l ≤ ε is
// the unit fraction Algorithm 1 actually runs with (proof of Theorem 1).
func epsilonToL(eps float64) (int, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("core: epsilon must be positive, got %v", eps)
	}
	if eps > 1 {
		eps = 1
	}
	l := int(math.Ceil(1/eps - 1e-12))
	if l < 1 {
		l = 1
	}
	return l, nil
}

// requireConnected rejects inputs the leader-based Phase II cannot serve:
// on a disconnected graph the BFS tree and the gather/flood primitives
// would silently operate on one component only.
func requireConnected(g *graph.Graph) error {
	if g.N() > 0 && !g.Connected() {
		return fmt.Errorf("core: input graph must be connected (run per component)")
	}
	return nil
}
