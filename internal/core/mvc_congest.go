package core

import (
	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// ApproxMVCCongest runs Algorithm 1 (Theorem 1): a deterministic
// (1+ε)-approximation for minimum vertex cover on the power graph Gʳ
// (Options.Power, default the paper's r = 2), communicating only over G in
// the CONGEST model — in O(n/ε) rounds at r = 2.
//
// Phase I repeatedly selects centers c whose live neighborhood N(c) ∩ R
// exceeds 1/ε and moves that whole neighborhood (a clique of every Gʳ,
// r ≥ 2) into the cover; simultaneous selections are made conflict-free by
// the paper's 2-hop maximum-ID rule. Phase II elects a leader, gathers an
// edge set sufficient to reconstruct H = Gʳ[U] (the O(n/ε)-size F of
// Lemma 2 at r = 2; the near-U gather of power_phase2.go otherwise), solves
// H with the configured LocalSolver (exact by default), and floods the
// solution back. At r = 1 Phase I is disabled — 1-hop neighborhoods are not
// G¹-cliques — and the run degenerates to Phase II solving G itself.
//
// The algorithm is implemented as a congest.StepProgram — each node's
// per-round logic is a plain function call — so the engine drives it with
// no per-node goroutine at all.
//
// The input graph must be connected (Phase II routes everything through one
// leader). ε must be positive; for ε > 1 the paper's trivial 0-round
// 2-approximation (all vertices, Lemma 6) is returned.
func ApproxMVCCongest(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	l, err := epsilonToL(eps)
	if err != nil {
		return nil, err
	}
	r, err := opts.power()
	if err != nil {
		return nil, err
	}
	if eps > 1 {
		return &Result{Solution: bitset.Full(g.N()), PhaseISize: g.N()}, nil
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	n := g.N()
	solver, solveRep := opts.leaderSolver()

	// Each productive Phase-I iteration removes at least l+1 vertices from
	// R, so ⌊n/(l+1)⌋+1 lockstep iterations guarantee global quiescence
	// without a termination-detection protocol. At r = 1 Phase I must not
	// run at all (its committed neighborhoods are only Gʳ-cliques for
	// r ≥ 2).
	iterations := n/(l+1) + 1
	if r == 1 {
		iterations = 0
	}

	cfg := congest.Config{
		Graph:           g,
		Ctx:             opts.ctx(),
		Model:           congest.CONGEST,
		Shards:          opts.shards(),
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
		Tracer:          opts.tracer(),
	}
	res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
		return &mvcCongestProgram{
			n: n, l: l, power: r, iterations: iterations, idw: congest.IDBits(n),
			solver: solver, inR: true, inC: true,
		}
	})
	if err != nil {
		return nil, err
	}
	return assembleWithSolve(res.Outputs, res.Stats, solveRep), nil
}

// mvcCongestProgram is Algorithm 1 in step form. Phase I runs a fixed
// 4-slice schedule per iteration (status exchange, two 2-hop-max slices,
// join announcements); Phase II is the shared leader pipeline — leader
// election, BFS tree, pipelined gather of F at the leader, local solve
// (Lemma 3), pipelined flood of the solution — with each stage starting in
// the slice its predecessor finishes.
type mvcCongestProgram struct {
	n, l, power, iterations, idw int
	solver                       LocalSolver

	// Phase I state. sr counts Phase-I round-slices: slice 0 sends the
	// first R-status broadcast, then each iteration occupies 4 slices, and
	// slice 4·iterations+1 collects the final U-status exchange.
	sr                  int
	inR, inC, inS       bool
	candidate, selected bool
	maxVal              int64
	uNbrs               []int

	stage   int
	gather  *primitives.StepSparsify
	pipe    *primitives.StepLeaderPipeline
	inRStar bool
}

func (p *mvcCongestProgram) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if !p.stepPhaseI(nd) {
				return false, nil
			}
			if p.power == 2 {
				// The paper's exact F-edge wire format (Lemma 2/3).
				items := uEdgeItems(p.n, nd.ID(), p.uNbrs)
				p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
					return coverIDItems(leaderSolveRemainder(p.n, gathered, p.solver), p.idw)
				})
				p.stage = 2
				continue
			}
			p.gather = primitives.NewStepSparsify(p.power, p.inR, p.uNbrs)
			p.stage = 1
		case 1:
			if !p.gather.Step(nd) {
				return false, nil
			}
			items := powerEdgeItems(nd, p.gather, p.inR)
			p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
				return coverIDItems(leaderSolvePowerRemainder(p.n, p.power, gathered, p.solver), p.idw)
			})
			p.stage = 2
		default:
			if !p.pipe.Step(nd) {
				return false, nil
			}
			for _, m := range p.pipe.Items() {
				if m.(congest.Int).V == int64(nd.ID()) {
					p.inRStar = true
				}
			}
			return true, nil
		}
	}
}

func (p *mvcCongestProgram) Output() nodeOut {
	return nodeOut{InSolution: p.inS || p.inRStar, InPhaseI: p.inS}
}

// stepPhaseI advances one Phase-I round-slice; it reports done in the slice
// that collects the final U-status exchange (queuing nothing, so Phase II's
// leader election starts in that same slice).
func (p *mvcCongestProgram) stepPhaseI(nd *congest.Node) bool {
	switch {
	case p.sr == 4*p.iterations+1:
		// Final status exchange: learn which neighbors are in U = V \ S.
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				p.uNbrs = append(p.uNbrs, in.From)
			}
		}
		nd.SpanEnd("phase1", 0) // no-op at r = 1, where Phase I never began
		return true
	case p.sr == 0:
		// Round 1 of iteration 0: exchange R-status.
		if p.iterations > 0 {
			nd.SpanBegin("phase1", 0)
		}
		nd.Broadcast(congest.NewIntWidth(boolBit(p.inR), 1))
	default:
		switch (p.sr - 1) % 4 {
		case 0:
			nd.SpanBegin("phase1-iter", (p.sr-1)/4)
			// Count live neighbors; candidates are potential centers with
			// more than 1/ε = l live neighbors (the loop guard of
			// Algorithm 1). First slice of the 2-hop max: flood own value.
			dR := 0
			for _, in := range nd.Recv() {
				if in.Msg.(congest.Int).V == 1 {
					dR++
				}
			}
			p.candidate = p.inC && dR > p.l
			val := int64(0)
			if p.candidate {
				val = int64(nd.ID()) + 1
			}
			p.maxVal = val
			nd.Broadcast(congest.NewInt(val))
		case 1:
			// Second slice of the 2-hop max: flood the 1-hop maximum.
			for _, in := range nd.Recv() {
				if v := in.Msg.(congest.Int).V; v > p.maxVal {
					p.maxVal = v
				}
			}
			nd.Broadcast(congest.NewInt(p.maxVal))
		case 2:
			// Selected centers (2-hop maxima) move N(c) into S.
			for _, in := range nd.Recv() {
				if v := in.Msg.(congest.Int).V; v > p.maxVal {
					p.maxVal = v
				}
			}
			p.selected = p.candidate && p.maxVal == int64(nd.ID())+1
			if p.selected {
				nd.Broadcast(congest.Flag{})
				p.inC = false
			}
		case 3:
			// A JOIN from any selected center puts us into the cover; then
			// the next iteration's status exchange (or the final U-status
			// exchange) starts in this same slice.
			for range nd.Recv() {
				p.inS = true
				p.inR = false
				break
			}
			nd.SpanEnd("phase1-iter", (p.sr-1)/4)
			nd.Broadcast(congest.NewIntWidth(boolBit(p.inR), 1))
		}
	}
	p.sr++
	return false
}

// leaderSolveRemainder rebuilds H = G²[U] from the gathered edge set F per
// Lemma 3 and returns the configured solver's cover of H, in original ids.
// Each gathered item is a (v, u) pair asserting edge {v,u} ∈ E with u ∈ U.
func leaderSolveRemainder(n int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	b := graph.NewBuilder(n)
	for _, m := range gathered {
		p := m.(congest.Pair)
		u.Add(int(p.B))
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err) // malformed item: an engine/protocol bug, not user input
		}
	}
	fGraph := b.Build()
	h, orig := fGraph.Square().InducedSubgraph(u)
	local := solver(h)
	out := bitset.New(n)
	local.ForEach(func(i int) bool {
		out.Add(orig[i])
		return true
	})
	return out
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
