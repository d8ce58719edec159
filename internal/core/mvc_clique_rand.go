package core

import (
	"math"

	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// ApproxMVCCliqueRandomized runs Theorem 11: a randomized
// (1+ε)-approximation for G²-MVC in the CONGESTED CLIQUE in O(log n + 1/ε)
// rounds, w.h.p.
//
// Each iteration, every live vertex votes for its incident candidate with
// the highest random rank; a candidate succeeding on ≥ dR(c)/8 votes moves
// its whole neighborhood into the cover. The potential Φ = Σ_c dR(c) drops
// by an expected constant factor per iteration (Claim 1), so O(log n)
// iterations suffice w.h.p.; after 8·log₂n + 16 iterations the ranks switch
// to the node ids, which makes the globally maximal candidate always
// succeed and guarantees termination unconditionally. Phase II is Lemma 9's
// direct O(1/ε)-round gather.
//
// The algorithm is a congest.StepProgram (StepVotingPhase in clique mode
// for Phase I, the clique-model broadcast primitives for Phase II);
// TestStepCliqueRandMatchesBlockingReference holds it to the recorded
// outputs of the blocking implementation it replaced.
func ApproxMVCCliqueRandomized(g *graph.Graph, eps float64, opts *Options) (*Result, error) {
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
	// Threshold: a vertex is a candidate while dR(c) > 8/ε + 2 (it "leaves
	// C" as soon as its live degree drops to the threshold or below).
	tau := int(math.Ceil(8/eps)) + 2
	if r == 1 {
		// No live degree can exceed n, so candidacy never fires and the
		// clique's global OR ends Phase I after one iteration: at r = 1 the
		// committed neighborhoods would not be Gʳ-cliques.
		tau = n
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
		return &mvcCliqueRandProgram{
			n: n, tau: tau, power: r, solver: solver,
			voting: primitives.NewStepVotingPhase(primitives.VotingConfig{
				Tau:         tau,
				RandomIters: 8*congest.IDBits(n) + 16,
				Clique:      true,
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

// mvcCliqueRandProgram is Theorem 11 in step form: the clique-mode voting
// phase (terminated by the per-iteration global OR), then the step-form
// Lemma 9 Phase II.
type mvcCliqueRandProgram struct {
	n, tau, power int
	solver        LocalSolver

	voting *primitives.StepVotingPhase
	phase2 *cliqueStepPhaseII
}

func (p *mvcCliqueRandProgram) Step(nd *congest.Node) (bool, error) {
	for {
		if p.phase2 != nil {
			if !p.phase2.Step(nd) {
				return false, nil
			}
			return true, nil
		}
		if !p.voting.Step(nd) {
			return false, nil
		}
		p.phase2 = newCliqueStepPhaseII(nd, p.voting.InR(), p.tau, p.n, p.solver, p.power)
	}
}

func (p *mvcCliqueRandProgram) Output() nodeOut {
	return nodeOut{InSolution: p.voting.InS() || p.phase2.InCover(), InPhaseI: p.voting.InS()}
}
