package core

import (
	"math"

	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// ApproxMVCCongestRandomized runs Algorithm 1 with the randomized voting
// Phase I of Section 3.3 in the plain CONGEST model, targeting the power
// graph Gʳ selected by Options.Power (default r = 2; Phase II's
// reconstruction is r-aware, Phase I is power-independent for r ≥ 2 and
// skipped at r = 1). As the paper notes,
// "while this faster implementation itself works in the CONGEST model it
// still does not improve the overall running time" — Phase II's O(n/ε)
// leader gather dominates — but Phase I drains heavy neighborhoods in
// O(log n) iterations instead of O(εn), which this implementation makes
// measurable (compare Result.Stats against ApproxMVCCongest's).
//
// Without the clique's cheap global OR, termination detection is replaced
// by a fixed schedule: 8·log₂n + 16 random-rank iterations (enough w.h.p.
// by the potential argument of Theorem 11), then n/(τ+1)+1 deterministic
// iterations with rank = id, each of which is guaranteed to retire the
// globally maximal candidate.
//
// The algorithm is a congest.StepProgram (StepVotingPhase for Phase I,
// StepLeaderPipeline for Phase II); TestStepMVCRandMatchesBlockingReference
// holds it to the recorded outputs of the blocking implementation it
// replaced.
func ApproxMVCCongestRandomized(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
	if _, err := epsilonToL(eps); err != nil {
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
	tau := int(math.Ceil(8/eps)) + 2
	randomIters := 8*congest.IDBits(n) + 16
	fallbackIters := n/(tau+1) + 1
	maxIters := randomIters + fallbackIters
	if r == 1 {
		// Phase I's committed neighborhoods are Gʳ-cliques only for r ≥ 2;
		// at r = 1 the voting phase is skipped entirely and Phase II solves
		// G itself.
		randomIters, maxIters = 0, 0
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
		return &mvcRandCongestProgram{
			n: n, power: r, idw: congest.IDBits(n), solver: solver,
			voting: primitives.NewStepVotingPhase(primitives.VotingConfig{
				Tau:         tau,
				RandomIters: randomIters,
				MaxIters:    maxIters,
				RankWidth:   4 * congest.IDBits(n),
				IDWidth:     congest.IDBits(n),
			}),
		}
	})
	if err != nil {
		return nil, err
	}
	return assembleWithSolve(res.Outputs, res.Stats, solveRep), nil
}

// mvcRandCongestProgram is Section 3.3 in step form: the randomized voting
// phase, the final U-status exchange, then the standard leader pipeline.
type mvcRandCongestProgram struct {
	n, power, idw int
	solver        LocalSolver

	voting  *primitives.StepVotingPhase
	status  *primitives.StepStatusExchange
	gather  *primitives.StepSparsify
	pipe    *primitives.StepLeaderPipeline
	stage   int
	inRStar bool
}

func (p *mvcRandCongestProgram) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if !p.voting.Step(nd) {
				return false, nil
			}
			p.status = primitives.NewStepStatusExchange(p.voting.InR())
			p.stage = 1
		case 1:
			if !p.status.Step(nd) {
				return false, nil
			}
			if p.power == 2 {
				items := uEdgeItems(p.n, nd.ID(), p.status.On())
				p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
					return coverIDItems(leaderSolveRemainder(p.n, gathered, p.solver), p.idw)
				})
				p.stage = 3
				continue
			}
			p.gather = primitives.NewStepSparsify(p.power, p.voting.InR(), p.status.On())
			p.stage = 2
		case 2:
			if !p.gather.Step(nd) {
				return false, nil
			}
			items := powerEdgeItems(nd, p.gather, p.voting.InR())
			p.pipe = primitives.NewStepLeaderPipeline(nd, items, func(gathered []congest.Message) []congest.Message {
				return coverIDItems(leaderSolvePowerRemainder(p.n, p.power, gathered, p.solver), p.idw)
			})
			p.stage = 3
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

func (p *mvcRandCongestProgram) Output() nodeOut {
	return nodeOut{InSolution: p.voting.InS() || p.inRStar, InPhaseI: p.voting.InS()}
}
