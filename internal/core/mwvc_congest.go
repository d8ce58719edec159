package core

import (
	"fmt"
	"math/bits"

	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// edgeOrWeight is the Phase-II gather item of the weighted algorithm: either
// an F-edge report {A,B} with B ∈ U, or a weight report (A = vertex, B =
// its weight). One tag bit distinguishes them.
type edgeOrWeight struct {
	IsWeight bool
	A, B     int64
	WA, WB   int
}

func (m edgeOrWeight) Bits() int { return 1 + m.WA + m.WB }

// ApproxMWVCCongest runs the weighted variant of Algorithm 1 (Theorem 7): a
// deterministic (1+ε)-approximation for minimum weighted vertex cover on
// the power graph Gʳ (Options.Power, default r = 2) — in O(n·log n/ε)
// CONGEST rounds at r = 2. The payment loop is power-independent for r ≥ 2
// (ripe classes are cliques of every such Gʳ) and skipped at r = 1; Phase
// II's reconstruction is r-aware (see power_phase2.go).
//
// Phase I picks centers by weight classes: N(c) is partitioned into the
// classes N_i(c) of geometrically increasing weight, and a class is "ripe"
// when its maximum live weight w*_i(c) is at most W_i(c)·ε/(1+ε) — then
// adding N_i(c) ∩ R to the cover costs at most (1+ε) times what any optimal
// cover pays on that clique of G². A fidelity note: the paper's pseudocode
// removes a processed center from C after handling a single class; we keep
// the center eligible while any class remains ripe, which is what the |F|
// bound of Lemma 8 (and hence the Phase-II round bound) actually requires.
//
// The algorithm is a congest.StepProgram over the step-form primitives
// (StepWeightedLocalRatio for Phase I, StepLeaderPipeline for Phase II), so
// the engine drives it with no per-node goroutine;
// TestStepMWVCMatchesBlockingReference holds it to the recorded outputs of
// the blocking implementation it replaced.
//
// Vertex weights must be non-negative and fit in 3·⌈log₂ n⌉-1 bits (the
// paper's O(log n)-bit weight assumption); zero-weight vertices join the
// cover for free upfront, as in Section 3.2. The graph must be connected.
func ApproxMWVCCongest(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %v", eps)
	}
	r, err := opts.power()
	if err != nil {
		return nil, err
	}
	if err := requireConnected(g); err != nil {
		return nil, err
	}
	n := g.N()
	idw := congest.IDBits(n)
	maxWBits := 3*idw - 1
	if maxWBits < 1 {
		maxWBits = 1
	}
	for v := 0; v < n; v++ {
		w := g.Weight(v)
		if w < 0 {
			return nil, fmt.Errorf("core: negative weight %d at vertex %d", w, v)
		}
		if bits.Len64(uint64(w)) > maxWBits {
			return nil, fmt.Errorf("core: weight %d at vertex %d exceeds the O(log n)-bit budget (%d bits)", w, v, maxWBits)
		}
	}
	solver, solveRep := opts.leaderSolver()
	ratio := eps / (1 + eps)

	// Every ripe class has at least (1+ε)/ε = 1 + 1/ε members, so a
	// productive iteration removes at least ⌊1+1/ε⌋ vertices from R and
	// this many lockstep iterations guarantees quiescence.
	minRemoval := int(1 + 1/eps)
	if minRemoval < 1 {
		minRemoval = 1
	}
	iterations := n/minRemoval + 1
	if r == 1 {
		// The payment loop's ripe classes are Gʳ-cliques only for r ≥ 2; at
		// r = 1 only the zero-weight pre-covering runs and Phase II solves
		// the weighted G exactly.
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
		return &mwvcCongestProgram{
			n: n, power: r, idw: idw, maxWBits: maxWBits, solver: solver,
			phase1: primitives.NewStepWeightedLocalRatio(nd, iterations, maxWBits, ripeSelector(ratio)),
		}
	})
	if err != nil {
		return nil, err
	}
	return assembleWithSolve(res.Outputs, res.Stats, solveRep), nil
}

// ripeSelector builds the PayeeSelector implementing condition (7) of
// Theorem 7: partition the live neighborhood into weight classes of
// geometrically increasing weight (anchored at the smallest positive
// neighbor weight) and return the union of N_i(c) ∩ R over every class
// whose maximum live weight is at most the class total times ε/(1+ε).
func ripeSelector(ratio float64) primitives.PayeeSelector {
	return func(nd *congest.Node, nbrWeight map[int]int64, inRNbr map[int]bool) []int {
		wMin := int64(0)
		for _, w := range nbrWeight {
			if w > 0 && (wMin == 0 || w < wMin) {
				wMin = w
			}
		}
		classOf := func(u int) int {
			w := nbrWeight[u]
			if w <= 0 || wMin == 0 {
				return -1 // zero-weight: pre-covered, never in a class
			}
			c := 0
			for t := wMin; t*2 <= w; t *= 2 {
				c++
			}
			return c
		}
		type agg struct {
			sum, max int64
			members  []int
		}
		classes := map[int]*agg{}
		for _, u := range nd.Neighbors() {
			if !inRNbr[u] {
				continue
			}
			ci := classOf(u)
			if ci < 0 {
				continue
			}
			a := classes[ci]
			if a == nil {
				a = &agg{}
				classes[ci] = a
			}
			w := nbrWeight[u]
			a.sum += w
			if w > a.max {
				a.max = w
			}
			a.members = append(a.members, u)
		}
		var out []int
		for _, a := range classes {
			if float64(a.max) <= float64(a.sum)*ratio+1e-12 {
				out = append(out, a.members...)
			}
		}
		return out
	}
}

// mwvcCongestProgram is Theorem 7 in step form: the weighted local-ratio
// Phase I, then the standard leader pipeline gathering F plus the weights of
// U-vertices and flooding the leader's cover of H = G²[U] back.
type mwvcCongestProgram struct {
	n, power, idw, maxWBits int
	solver                  LocalSolver

	phase1  *primitives.StepWeightedLocalRatio
	gather  *primitives.StepSparsify
	pipe    *primitives.StepLeaderPipeline
	stage   int
	inRStar bool
}

// weightedItems builds this node's Phase-II contribution: edge reports for
// the given neighbors plus, when the node is still live, its weight report
// (which also marks U-membership at the leader).
func (p *mwvcCongestProgram) weightedItems(nd *congest.Node, edgeNbrs []int) []congest.Message {
	items := make([]congest.Message, 0, len(edgeNbrs)+1)
	for _, u := range edgeNbrs {
		items = append(items, edgeOrWeight{A: int64(nd.ID()), B: int64(u), WA: p.idw, WB: p.idw})
	}
	if p.phase1.InR() {
		items = append(items, edgeOrWeight{IsWeight: true, A: int64(nd.ID()), B: nd.Weight(), WA: p.idw, WB: p.maxWBits})
	}
	return items
}

func (p *mwvcCongestProgram) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if !p.phase1.Step(nd) {
				return false, nil
			}
			if p.power == 2 {
				// Lemma 8's F-edges: only edges into the live set U.
				items := p.weightedItems(nd, p.phase1.UNbrs())
				p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
					return coverIDItems(leaderSolveWeightedRemainder(p.n, gathered, p.solver), p.idw)
				})
				p.stage = 2
				continue
			}
			p.gather = primitives.NewStepSparsify(p.power, p.phase1.InR(), p.phase1.UNbrs())
			p.stage = 1
		case 1:
			if !p.gather.Step(nd) {
				return false, nil
			}
			// Near nodes report their certificate incident edges (relay
			// paths of Gʳ[U] may route outside U); membership travels on
			// weight reports.
			items := p.weightedItems(nd, p.gather.Certificate(nd))
			p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
				return coverIDItems(leaderSolveWeightedPowerRemainder(p.n, p.power, gathered, p.solver), p.idw)
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

func (p *mwvcCongestProgram) Output() nodeOut {
	return nodeOut{InSolution: p.phase1.InS() || p.inRStar, InPhaseI: p.phase1.InS()}
}

// leaderSolveWeightedRemainder rebuilds the weighted H = G²[U] from the
// gathered F-edges and weight reports, and solves it with the given solver.
func leaderSolveWeightedRemainder(n int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	weights := make(map[int]int64)
	b := graph.NewBuilder(n)
	for _, m := range gathered {
		p := m.(edgeOrWeight)
		if p.IsWeight {
			u.Add(int(p.A))
			weights[int(p.A)] = p.B
			continue
		}
		u.Add(int(p.B))
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err)
		}
	}
	for v, w := range weights {
		b.SetWeight(v, w)
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
