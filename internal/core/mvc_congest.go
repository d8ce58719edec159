package core

import (
	"slices"

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
	return approxMVCCongest(g, eps, opts, congest.RunProgram[nodeOut])
}

func approxMVCCongest(g *graph.Graph, eps float64, opts *Options, run nodeRunner) (*Result, error) {
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
	res, err := run(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
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
//
// Phase I sends only what a neighbor cannot infer. Every node starts in R,
// so a status exchange carries only the nodes that left R since the last
// one (each node speaks once); receivers keep the list of neighbors that
// left, which gives the live-neighbor count and, in the final exchange, U's
// neighbors. The 2-hop maximum is StepHopMax's change-only flood, and only
// selected centers announce joins.
type mvcCongestProgram struct {
	n, l, power, iterations, idw int
	solver                       LocalSolver

	// Phase I state. sr counts Phase-I round-slices: slice 0 is the first
	// (silent) R-status exchange, then each iteration occupies 4 slices,
	// and slice 4·iterations+1 collects the final U-status exchange.
	sr            int
	inR, inC, inS bool
	candidate     bool
	left          []int // neighbors that reported leaving R
	hop           primitives.StepHopMax
	uNbrs         []int

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
				nd.Idle(p.pipe.Idle())
				return false, nil
			}
			for _, m := range p.pipe.Items() {
				if m.A == int64(nd.ID()) {
					p.inRStar = true
				}
			}
			return true, nil
		}
	}
}

// Skip implements congest.Skipper. Only the Phase-II pipeline promises idle
// rounds, so a skip always lands in it.
func (p *mvcCongestProgram) Skip(_ *congest.Node, k int) { p.pipe.Skip(k) }

func (p *mvcCongestProgram) Output() nodeOut {
	return nodeOut{InSolution: p.inS || p.inRStar, InPhaseI: p.inS}
}

// stepPhaseI advances one Phase-I round-slice; it reports done in the slice
// that collects the final U-status exchange (queuing nothing, so Phase II's
// leader election starts in that same slice).
func (p *mvcCongestProgram) stepPhaseI(nd *congest.Node) bool {
	switch {
	case p.sr == 4*p.iterations+1:
		// Final status exchange: U = V \ S holds every neighbor that never
		// reported leaving R.
		p.readLeft(nd)
		p.uNbrs = liveNeighbors(nd, p.left)
		nd.SpanEnd("phase1", 0) // no-op at r = 1, where Phase I never began
		return true
	case p.sr == 0:
		// Round 1 of iteration 0: every node starts in R, so the R-status
		// exchange is silent.
		if p.iterations > 0 {
			nd.SpanBegin("phase1", 0)
		}
	default:
		switch (p.sr - 1) % 4 {
		case 0:
			nd.SpanBegin("phase1-iter", (p.sr-1)/4)
			// Count live neighbors; candidates are potential centers with
			// more than 1/ε = l live neighbors (the loop guard of
			// Algorithm 1). First slice of the 2-hop max.
			p.readLeft(nd)
			p.candidate = p.inC && nd.Degree()-len(p.left) > p.l
			val := int64(0)
			if p.candidate {
				val = int64(nd.ID()) + 1
			}
			p.hop.Restart(val, 0, 2) // the natural-width NewStepTwoHopMax
			p.hop.Step(nd)
		case 1:
			p.hop.Step(nd) // second slice of the 2-hop max
		case 2:
			// Selected centers (2-hop maxima) move N(c) into S.
			p.hop.Step(nd)
			if p.candidate && p.hop.Max() == int64(nd.ID())+1 {
				nd.Broadcast(congest.Flag())
				p.inC = false
			}
		case 3:
			// A JOIN from any selected center puts us into the cover; a node
			// that leaves R says so in the next iteration's status exchange
			// (or the final U-status exchange), which starts in this same
			// slice.
			left := false
			if len(nd.Recv()) > 0 {
				left = p.inR
				p.inS = true
				p.inR = false
			}
			nd.SpanEnd("phase1-iter", (p.sr-1)/4)
			if left {
				nd.Broadcast(congest.NewIntWidth(0, 1))
			}
		}
	}
	p.sr++
	return false
}

// readLeft records the neighbors that reported leaving R this slice.
func (p *mvcCongestProgram) readLeft(nd *congest.Node) {
	for _, in := range nd.Recv() {
		p.left = append(p.left, in.From)
	}
}

// liveNeighbors returns nd's neighbors outside left, in id order; left is
// sorted in place.
func liveNeighbors(nd *congest.Node, left []int) []int {
	slices.Sort(left)
	var out []int
	for _, u := range nd.Neighbors() {
		if len(left) > 0 && left[0] == u {
			left = left[1:]
			continue
		}
		out = append(out, u)
	}
	return out
}

// leaderSolveRemainder rebuilds H = G²[U] from the gathered edge set F per
// Lemma 3 and returns the configured solver's cover of H, in original ids.
// Each gathered item is a (v, u) pair asserting edge {v,u} ∈ E with u ∈ U.
func leaderSolveRemainder(n int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	b := graph.NewBuilder(n)
	for _, p := range gathered {
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
