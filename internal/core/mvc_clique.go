package core

import (
	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// ApproxMVCCliqueDeterministic runs Corollary 10: a deterministic
// (1+ε)-approximation for G²-MVC in the CONGESTED CLIQUE, in O(εn + 1/ε)
// rounds. Phase I is Algorithm 1's (run over G-edges); Phase II uses the
// clique's all-to-all links: every node ships its ≤ 1/ε F-edges straight to
// the leader in parallel (Lemma 9) and the leader answers in one round.
//
// The algorithm is a congest.StepProgram (clique-model broadcast primitives
// StepCliqueLeader and StepDirectGather serve Phase II);
// TestStepCliqueDetMatchesBlockingReference holds it to the recorded
// outputs of the blocking implementation it replaced.
func ApproxMVCCliqueDeterministic(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
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
	iterations := n/(l+1) + 1
	if r == 1 {
		// Committed neighborhoods are Gʳ-cliques only for r ≥ 2.
		iterations = 0
	}

	cfg := congest.Config{
		Graph:           g,
		Ctx:             opts.ctx(),
		Model:           congest.CongestedClique,
		Shards:          opts.shards(),
		BandwidthFactor: opts.bandwidthFactor(4),
		MaxRounds:       opts.maxRounds(),
		Seed:            opts.seed(),
		CutA:            opts.cutA(),
		Tracer:          opts.tracer(),
	}
	res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
		return &mvcCliqueDetProgram{
			n: n, l: l, power: r, iterations: iterations, solver: solver,
			inR: true, inC: true,
		}
	})
	if err != nil {
		return nil, err
	}
	return assembleWithSolve(res.Outputs, res.Stats, solveRep), nil
}

// Phase-I states of mvcCliqueDetProgram.
const (
	cliqueDetStatus = iota // join read + status broadcast (or Phase II entry)
	cliqueDetDR            // status read + clique OR start
	cliqueDetOR            // OR read: early exit, or 2-hop max start
	cliqueDetHop           // 2-hop max in flight, JOINs on its final slice
)

// mvcCliqueDetProgram is Corollary 10 in step form. Phase I mirrors
// Algorithm 1's center selection over G-edges with one extra clique round
// per iteration computing the global "any candidate left?" OR, so quiet
// instances stop in O(1) iterations; Phase II is the step-form Lemma 9
// gather (cliqueStepPhaseII). As in mvcCongestProgram, a status exchange
// carries only the nodes that just left R (receivers count live
// neighbors), the 2-hop maximum is change-only, and only candidates send in
// the OR.
type mvcCliqueDetProgram struct {
	n, l, power, iterations int
	solver                  LocalSolver

	sub, it       int
	inR, inC, inS bool
	candidate     bool
	live          int // neighbors still in R
	hop           primitives.StepHopMax
	phase2        *cliqueStepPhaseII
}

func (p *mvcCliqueDetProgram) Step(nd *congest.Node) (bool, error) {
	for {
		if p.phase2 != nil {
			if !p.phase2.Step(nd) {
				return false, nil
			}
			return true, nil
		}
		switch p.sub {
		case cliqueDetStatus:
			left := false
			if p.it > 0 && len(nd.Recv()) > 0 {
				left = p.inR
				p.inS = true
				p.inR = false
			}
			if p.it == p.iterations {
				nd.SpanEnd("phase1", 0) // no-op when Phase I never began
				p.enterPhaseII(nd)
				continue
			}
			if p.it == 0 {
				nd.SpanBegin("phase1", 0)
				p.live = nd.Degree()
			}
			nd.SpanBegin("phase1-iter", p.it)
			if left {
				nd.BroadcastNeighbors(congest.NewIntWidth(0, 1))
			}
			p.sub = cliqueDetDR
			return false, nil
		case cliqueDetDR:
			p.live -= len(nd.Recv())
			p.candidate = p.inC && p.live > p.l
			// Global OR via the clique: only candidates speak.
			if p.candidate {
				nd.Broadcast(congest.NewIntWidth(1, 1))
			}
			p.sub = cliqueDetOR
			return false, nil
		case cliqueDetOR:
			if !p.candidate && len(nd.Recv()) == 0 {
				nd.SpanEnd("phase1-iter", p.it)
				nd.SpanEnd("phase1", 0)
				p.enterPhaseII(nd)
				continue
			}
			val := int64(0)
			if p.candidate {
				val = int64(nd.ID()) + 1
			}
			p.hop.Restart(val, 0, 2) // the natural-width NewStepTwoHopMax
			p.hop.Step(nd)
			p.sub = cliqueDetHop
			return false, nil
		default: // cliqueDetHop
			if !p.hop.Step(nd) {
				return false, nil
			}
			if p.candidate && p.hop.Max() == int64(nd.ID())+1 {
				nd.BroadcastNeighbors(congest.Flag())
				p.inC = false
			}
			nd.SpanEnd("phase1-iter", p.it)
			p.it++
			p.sub = cliqueDetStatus
			return false, nil
		}
	}
}

// enterPhaseII starts the clique Phase II in the current slice (its first
// send, the leader-election broadcast, is queued by the caller's next
// phase2.Step call in the same slice).
func (p *mvcCliqueDetProgram) enterPhaseII(nd *congest.Node) {
	p.phase2 = newCliqueStepPhaseII(nd, p.inR, p.l, p.n, p.solver, p.power)
}

func (p *mvcCliqueDetProgram) Output() nodeOut {
	return nodeOut{InSolution: p.inS || p.phase2.InCover(), InPhaseI: p.inS}
}

// cliqueStepPhaseII is the step form of the shared CONGESTED CLIQUE Phase II
// (Lemma 9): a one-round leader election, a final U-status exchange over
// G-edges, maxItems parallel rounds of direct item shipping to the leader, a
// local solve, and a one-round answer. At r = 2 the shipped items are the
// F-edges of Lemma 2 and maxItems must upper-bound every node's F-edge
// count; at other powers the near-U gather of power_phase2.go runs instead
// (labeled over G-edges), every near node ships its certificate subset of
// incident edges, and the common-knowledge item bound is n (a node never
// holds more than its degree plus one membership pair).
type cliqueStepPhaseII struct {
	n, power, maxItems int
	inR                bool
	solver             LocalSolver

	sub      int
	started  bool
	leader   *primitives.StepCliqueLeader
	status   *primitives.StepStatusExchange
	near     *primitives.StepSparsify
	gather   *primitives.StepDirectGather
	leaderID int
	inCover  bool
}

func newCliqueStepPhaseII(nd *congest.Node, inR bool, maxItems, n int, solver LocalSolver, power int) *cliqueStepPhaseII {
	if power != 2 {
		maxItems = n
	}
	return &cliqueStepPhaseII{
		n: n, power: power, maxItems: maxItems, inR: inR, solver: solver,
		leader: primitives.NewStepCliqueLeader(nd),
	}
}

// startGather ships this node's items toward the elected leader.
func (p *cliqueStepPhaseII) startGather(items []congest.Message) {
	if len(items) > p.maxItems {
		// Protocol invariant broken: Phase I should have bounded U-degrees
		// (r = 2), or the degree+1 bound failed (other powers).
		panic("core: clique Phase II item bound violated")
	}
	p.gather = primitives.NewStepDirectGather(p.leaderID, items, p.maxItems)
}

func (p *cliqueStepPhaseII) Step(nd *congest.Node) bool {
	for {
		switch p.sub {
		case 0:
			if !p.started {
				p.started = true
				nd.SpanBegin("leader-elect", 0)
			}
			if !p.leader.Step(nd) {
				return false
			}
			nd.SpanEnd("leader-elect", 0)
			p.leaderID = p.leader.Leader()
			p.status = primitives.NewStepStatusExchange(p.inR)
			p.sub = 1
		case 1:
			if !p.status.Step(nd) {
				return false
			}
			if p.power == 2 {
				p.startGather(uEdgeItems(p.n, nd.ID(), p.status.On()))
				nd.SpanBegin("phase2-gather", 0)
				p.sub = 3
				continue
			}
			p.near = primitives.NewStepSparsify(p.power, p.inR, p.status.On())
			p.sub = 2
		case 2:
			if !p.near.Step(nd) {
				return false
			}
			p.startGather(powerEdgeItems(nd, p.near, p.inR))
			nd.SpanBegin("phase2-gather", 0)
			p.sub = 3
		case 3:
			if !p.gather.Step(nd) {
				return false
			}
			nd.SpanEnd("phase2-gather", 0)
			// Leader solves locally and answers every cover member in one
			// round.
			if nd.ID() == p.leaderID {
				nd.SpanBegin("leader-solve", 0)
				var cover *bitset.Set
				if p.power == 2 {
					cover = leaderSolveRemainder(p.n, p.gather.Collected(), p.solver)
				} else {
					cover = leaderSolvePowerRemainder(p.n, p.power, p.gather.Collected(), p.solver)
				}
				p.inCover = cover.Contains(nd.ID())
				cover.ForEach(func(v int) bool {
					if v != nd.ID() {
						nd.MustSend(v, congest.Flag())
					}
					return true
				})
				nd.SpanEnd("leader-solve", 0)
			}
			nd.SpanBegin("phase2-flood", 0)
			p.sub = 4
			return false
		default:
			if len(nd.Recv()) > 0 {
				p.inCover = true
			}
			nd.SpanEnd("phase2-flood", 0)
			return true
		}
	}
}

// InCover reports whether this node is in the leader's cover; valid once
// done.
func (p *cliqueStepPhaseII) InCover() bool { return p.inCover }
