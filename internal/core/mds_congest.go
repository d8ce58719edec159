package core

import (
	"fmt"

	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/estimate"
	"powergraph/internal/graph"
)

// MDSOptions tunes the Theorem 28 simulation.
type MDSOptions struct {
	Options
	// SampleFactor sets r = SampleFactor·⌈log₂ n⌉ estimator repetitions per
	// phase (Lemma 29 uses r = Θ(log n)). Zero selects the default of 3.
	SampleFactor int
	// PhaseFactor scales the number of phases
	// T = PhaseFactor·(⌈log₂ n⌉+1)·(⌈log₂ Δ²⌉+2); [CD18] needs
	// O(log n·log Δ) phases w.h.p. Zero selects the default of 2.
	PhaseFactor int
}

// ApproxMDSCongest runs Theorem 28: a randomized O(log Δ)-approximation for
// minimum dominating set on the power graph Gʳ (Options.Power, default the
// paper's r = 2), communicating over G in the CONGEST model, in polylog(n)
// rounds. It simulates the [CD18] MDS algorithm on Gʳ using the Lemma 29
// exponential-sketch estimator for every quantity a node would need from
// its r-hop neighborhood (described below for r = 2, whose schedule is
// reproduced exactly; other powers deepen every flood to r hops, and the
// step-4 vote estimation stays exact at every depth by routing each sample
// along the rank floods' adoption trees — see
// NewStepCandidateMinFloodRoutes, which replaced the conservative r ≥ 3
// spread):
//
//  1. each vertex estimates its coverage C_v (uncovered vertices within two
//     hops) with r = Θ(log n) two-round min-floods and rounds it to a power
//     of two (ρ̃_v);
//  2. vertices whose ρ̃ is maximal within four hops in G (two hops in G²)
//     become candidates;
//  3. candidates draw random ranks; every uncovered vertex votes for the
//     minimal (rank, id) candidate within two hops;
//  4. candidates estimate their vote count with per-candidate min-floods
//     (intermediate nodes forward, to each neighboring candidate, only that
//     candidate's minimum — the congestion-avoiding trick of Section 6.1);
//  5. a candidate with votes ≥ C̃_v/8 joins the dominating set;
//  6. a two-round flood marks everything within two hops of a new member
//     covered.
//
// After the w.h.p. phase budget, any still-uncovered vertex joins the
// dominating set itself (feasibility is unconditional; Result.FallbackJoins
// reports how many did, which is 0 w.h.p.).
//
// The algorithm is a congest.StepProgram over the greedy-cover step
// primitives (StepMinFlood, StepHopMax, StepRankFlood,
// StepCandidateMinFlood), so the engine drives it with no per-node
// goroutine; TestStepMDSMatchesBlockingReference holds it to the recorded
// outputs of the blocking implementation it replaced.
func ApproxMDSCongest(g *graph.Graph, opts *MDSOptions) (*Result, error) {
	return approxMDSCongest(g, opts, congest.RunProgram[nodeOut])
}

func approxMDSCongest(g *graph.Graph, opts *MDSOptions, run nodeRunner) (*Result, error) {
	if opts == nil {
		opts = &MDSOptions{}
	}
	p, bwf, err := deriveMDSParams(g, opts)
	if err != nil {
		return nil, err
	}

	cfg := congest.Config{
		Graph:           g,
		Ctx:             opts.Options.ctx(),
		Model:           congest.CONGEST,
		Shards:          opts.shards(),
		BandwidthFactor: bwf,
		MaxRounds:       opts.Options.MaxRounds,
		Seed:            opts.Options.Seed,
		CutA:            opts.Options.CutA,
		Tracer:          opts.Options.Tracer,
	}
	res, err := run(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
		prog := &mdsCongestProgram{mdsParams: *p}
		prog.startPhase(nd)
		return prog
	})
	if err != nil {
		return nil, err
	}
	out := assemble(res.Outputs, res.Stats)
	out.FallbackJoins = out.PhaseISize
	out.PhaseISize = -1
	return out, nil
}

// mdsParams derives the shared simulation parameters of Theorem 28 from the
// graph and options: the target power rpow, estimator repetitions r, phase
// budget, message widths, and the bandwidth factor wide enough for the
// largest estimator payload.
type mdsParams struct {
	n, rpow, r, phases           int
	idw, fracBits, qWidth, rankW int
	rankMax                      int64
}

// cappedPow returns base^exp, saturating well below int64 overflow (the
// result only ever feeds a logarithm).
func cappedPow(base int64, exp int) int64 {
	const limit = int64(1) << 50
	p := int64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && p > limit/base {
			return limit
		}
		p *= base
	}
	return p
}

func deriveMDSParams(g *graph.Graph, opts *MDSOptions) (*mdsParams, int, error) {
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("core: empty graph")
	}
	rpow, err := opts.Options.power()
	if err != nil {
		return nil, 0, err
	}
	idw := congest.IDBits(n)
	sampleFactor := opts.SampleFactor
	if sampleFactor == 0 {
		sampleFactor = 3
	}
	phaseFactor := opts.PhaseFactor
	if phaseFactor == 0 {
		phaseFactor = 2
	}
	r := sampleFactor * idw
	if r < 4 {
		r = 4
	}
	// The [CD18] phase budget is O(log n · log Δ(Gʳ)); Δ(Gʳ) ≤ Δᵣ = Δ^rpow.
	delta := g.MaxDegree()
	logDeltaR := congest.IDBits(int(cappedPow(int64(delta), rpow))+2) + 1
	phases := phaseFactor * (idw + 1) * logDeltaR

	fracBits := 2*idw + 4
	qWidth := estimate.IntBits + fracBits
	rankW := 4 * idw
	// Largest message: candidate id + quantized value. Pick the bandwidth
	// factor so it fits (Θ(log n) with a bigger constant than the MVC
	// algorithms, as the estimator payloads are wider).
	needBits := idw + qWidth
	bwf := opts.Options.BandwidthFactor
	if bwf == 0 {
		bwf = (needBits + idw - 1) / idw
		if bwf < 8 {
			bwf = 8
		}
	}
	return &mdsParams{
		n: n, rpow: rpow, r: r, phases: phases,
		idw: idw, fracBits: fracBits, qWidth: qWidth, rankW: rankW,
		// Ranks travel as rankW-bit fields but are drawn from an int64, so
		// the draw space is capped below the int64 width: at idw ≥ 16
		// (n ≥ 2^15) an uncapped 1<<rankW is zero and Int63n panics.
		// Collision probability stays ≤ n²/2^62, far below the 1/n the
		// analysis needs.
		rankMax: int64(1) << uint(min(rankW, 62)),
	}, bwf, nil
}

// Sub-stages of one mdsCongestProgram phase, entered in order. Every stage's
// depth follows the target power rpow (rpow = 2 reproduces the paper's G²
// schedule exactly).
const (
	mdsEstimate = iota // step 1: r chained rpow-deep coverage min-floods
	mdsHop             // step 2: 2·rpow-hop ρ̃ maximum
	mdsRank            // step 3: rpow chained (rank, id) floods
	mdsVotes           // step 4: r chained per-candidate vote floods
	mdsCover           // step 6: rpow-round coverage flood
)

// mdsCongestProgram is Theorem 28 in step form: each phase chains the
// greedy-cover primitives — coverage estimation, candidate selection by
// 4-hop maximum, rank voting, vote estimation, and the coverage flood —
// with every stage starting in the slice its predecessor finishes.
//
// The primitives are embedded by value and restarted in place, and every
// per-phase buffer (minima, candidate neighbors, adoption routes) is
// truncated rather than reallocated, so once the buffers have grown the
// phase loop allocates nothing (messages are plain values): the Θ(log n)
// floods per estimator quantity and the Θ(log n · log Δ) phases cost engine
// time, not heap churn (TestMDSCongestAllocsBounded).
//
// Most of those phases are silent. Once a vertex is covered it draws no
// samples, and in a neighborhood where every vertex is covered the
// estimate, rank, vote and cover stages carry nothing; the hop maximum
// sends only positive and rising values (ρ̃ is 0 at a vertex with nothing
// left to cover), and the cover flood relays each phase's first flag only.
// The program therefore promises the rest of such a stage to the engine as
// idle (congest.Node.Idle) and implements congest.Skipper, so the engine
// jumps over the silent rounds instead of stepping every node through them.
// Stage changes mark spans or draw ranks, so they are always stepped.
type mdsCongestProgram struct {
	mdsParams

	covered, inDS, fallback bool

	phase, sub, j int

	// Step 1 (coverage estimation) state.
	flood      primitives.StepMinFlood
	floodStage int
	minima     []float64
	sawAny     bool
	dTilde     float64
	rho        int64

	// Step 2 (candidate selection) state.
	hop primitives.StepHopMax

	// Step 3 (rank voting) state. candNbrs copies the first flood's senders
	// (the neighboring candidates, ascending) before later stages overwrite
	// them; routes records each adoption of a new running-best candidate
	// (level = stages completed, parent = delivering neighbor) — the in-tree
	// step 4's exact depth-r schedule routes along.
	rank       primitives.StepRankFlood
	rankStage  int
	candNbrs   []int
	candidate  bool
	voteFor    int
	routes     []primitives.CandRoute
	prevBestID int

	// Step 4 (vote estimation) state.
	votes      primitives.StepCandidateMinFlood
	voteMinima []float64
	gotVotes   bool

	// Step 6 (coverage flood) state. flagged records that this node has
	// sent its one flag of the phase (as a new member, or as the relay of
	// the first flag it heard).
	joined, flagged bool
	covRound        int
}

// startPhase resets the per-phase estimator state and stages the first
// coverage min-flood (its send is queued by the next Step call).
func (p *mdsCongestProgram) startPhase(nd *congest.Node) {
	nd.SpanBegin("mds-phase", p.phase)
	nd.SpanBegin("mds-estimate", p.phase)
	p.minima = p.minima[:0]
	p.sawAny = true
	p.j = 0
	p.floodStage = 0
	p.flood.Restart(p.coverageSample(nd), p.qWidth)
	p.sub = mdsEstimate
}

// coverageSample draws one quantized Exp(1) sample, or -1 when this node is
// already covered and contributes nothing.
func (p *mdsCongestProgram) coverageSample(nd *congest.Node) int64 {
	if p.covered {
		return -1
	}
	return estimate.Quantize(estimate.Sample(nd.Rand()), p.fracBits)
}

// voteSample draws one quantized sample toward the chosen candidate, or -1
// when this node votes for nobody.
func (p *mdsCongestProgram) voteSample(nd *congest.Node) int64 {
	if p.voteFor == -1 {
		return -1
	}
	return estimate.Quantize(estimate.Sample(nd.Rand()), p.fracBits)
}

func (p *mdsCongestProgram) Step(nd *congest.Node) (bool, error) {
	if p.step(nd) {
		return true, nil
	}
	nd.Idle(p.idle())
	return false, nil
}

// step advances one round and reports whether the node finished.
func (p *mdsCongestProgram) step(nd *congest.Node) bool {
	for {
		switch p.sub {
		case mdsEstimate:
			if !p.flood.Step(nd) {
				return false
			}
			if p.floodStage < p.rpow-1 {
				// Next hop of the rpow-round min-flood (one chained
				// single-hop flood per hop of Gʳ).
				p.flood.Restart(p.flood.Min(), p.qWidth)
				p.floodStage++
				continue
			}
			if m2 := p.flood.Min(); m2 < 0 {
				p.sawAny = false
			} else {
				p.minima = append(p.minima, estimate.Dequantize(m2, p.fracBits))
			}
			p.j++
			if p.j < p.r {
				p.floodStage = 0
				p.flood.Restart(p.coverageSample(nd), p.qWidth)
				continue
			}
			p.dTilde = 0
			p.rho = 0
			if p.sawAny && len(p.minima) == p.r {
				p.dTilde = estimate.FromMinima(p.minima)
				if p.dTilde > float64(p.n) {
					p.dTilde = float64(p.n) // clamp: can never cover more than n
				}
				p.rho = estimate.RoundUpPow2(p.dTilde)
			}
			nd.SpanEnd("mds-estimate", p.phase)
			p.hop.Restart(p.rho, p.idw+2, 2*p.rpow)
			p.sub = mdsHop
		case mdsHop:
			if !p.hop.Step(nd) {
				return false
			}
			p.candidate = p.rho > 0 && p.rho >= p.hop.Max()
			var myRank int64 = -1
			if p.candidate {
				myRank = nd.Rand().Int63n(p.rankMax)
			}
			p.rank.Restart(myRank, int64(nd.ID()), p.rankW, p.idw)
			p.rankStage = 0
			p.routes = p.routes[:0]
			p.prevBestID = -1
			if p.candidate {
				p.routes = append(p.routes, primitives.CandRoute{Cand: nd.ID(), From: -1, Lvl: 0})
				p.prevBestID = nd.ID()
			}
			p.sub = mdsRank
		case mdsRank:
			if !p.rank.Step(nd) {
				return false
			}
			if p.rankStage == 0 {
				// Direct senders in the first flood are the neighboring
				// candidates (used to route step 4's forwarded minima).
				p.candNbrs = append(p.candNbrs[:0], p.rank.Senders()...)
			}
			if _, id := p.rank.Best(); id >= 0 && int(id) != p.prevBestID {
				// Adopted a new running best: record the delivering neighbor
				// as this candidate's relay parent at this level.
				p.routes = append(p.routes, primitives.CandRoute{
					Cand: int(id), From: p.rank.BestFrom(), Lvl: p.rankStage + 1})
				p.prevBestID = int(id)
			}
			if p.rankStage < p.rpow-1 {
				r1, id1 := p.rank.Best()
				p.rank.Restart(r1, id1, p.rankW, p.idw)
				p.rankStage++
				continue
			}
			_, idR := p.rank.Best()
			p.voteFor = -1
			if !p.covered && idR >= 0 {
				p.voteFor = int(idR)
			}
			p.voteMinima = p.voteMinima[:0]
			p.gotVotes = true
			p.j = 0
			p.prepareVotes()
			p.votes.Restart(p.voteSample(nd))
			nd.SpanBegin("mds-votes", p.phase)
			p.sub = mdsVotes
		case mdsVotes:
			if !p.votes.Step(nd) {
				return false
			}
			if best := p.votes.Min(); best < 0 {
				p.gotVotes = false
			} else {
				p.voteMinima = append(p.voteMinima, estimate.Dequantize(best, p.fracBits))
			}
			p.j++
			if p.j < p.r {
				p.votes.Restart(p.voteSample(nd))
				continue
			}
			// Step 5: join on votes ≥ C̃_v/8.
			p.joined = false
			if p.candidate && p.gotVotes && len(p.voteMinima) == p.r {
				votes := estimate.FromMinima(p.voteMinima)
				if votes > float64(p.n) {
					votes = float64(p.n)
				}
				if votes >= p.dTilde/8 {
					p.inDS = true
					p.joined = true
					p.covered = true
				}
			}
			// Step 6: rpow-round coverage flood from new members. Each
			// node sends at most one flag per phase: a member at once, any
			// other node when the first flag reaches it (a second flag
			// carries nothing its neighbors have not heard).
			p.flagged = p.joined
			if p.joined {
				nd.BroadcastNeighbors(congest.Flag())
			}
			nd.SpanEnd("mds-votes", p.phase)
			p.covRound = 0
			p.sub = mdsCover
			return false
		default: // mdsCover
			if p.covRound < p.rpow-1 {
				if len(nd.Recv()) > 0 {
					p.covered = true
					if !p.flagged {
						p.flagged = true
						nd.BroadcastNeighbors(congest.Flag())
					}
				}
				p.covRound++
				return false
			}
			if len(nd.Recv()) > 0 {
				p.covered = true
			}
			nd.SpanEnd("mds-phase", p.phase)
			p.phase++
			if p.phase < p.phases {
				p.startPhase(nd)
				continue
			}
			// Unconditional feasibility: leftover uncovered vertices join.
			if !p.covered {
				p.inDS = true
				p.fallback = true
			}
			return true
		}
	}
}

// idle returns how many coming rounds this node stays silent in its current
// stage if nothing reaches it (0 when it may send, draw or change stage):
// the rest of the stage, provided its current flood holds no value and
// every later flood of the stage restarts without one. The hop maximum and
// the cover flood are idle whenever their last slice sent nothing new.
func (p *mdsCongestProgram) idle() int {
	switch p.sub {
	case mdsEstimate:
		if !p.covered || p.flood.Min() >= 0 {
			return 0
		}
		return p.flood.Idle() + (p.r-1-p.j)*p.rpow + p.rpow - 1 - p.floodStage
	case mdsHop:
		return p.hop.Idle()
	case mdsRank:
		if rank, _ := p.rank.Best(); rank >= 0 {
			return 0
		}
		return p.rank.Idle() + p.rpow - 1 - p.rankStage
	case mdsVotes:
		if p.voteFor >= 0 || !p.votes.Empty() {
			return 0
		}
		return p.votes.Idle() + (p.r-1-p.j)*p.rpow
	case mdsCover:
		return p.rpow - 1 - p.covRound
	}
	return 0
}

// Skip implements congest.Skipper: it advances the current stage over k
// silent rounds, k ≤ idle(), exactly as k Steps on empty inboxes would.
// Within a chain of floods, every flood that closes yields no value and the
// next restarts empty, so only the chain's counters move.
func (p *mdsCongestProgram) Skip(_ *congest.Node, k int) {
	switch p.sub {
	case mdsEstimate:
		closed, into := skipChain(k, p.flood.Idle(), 1)
		if closed == 0 {
			p.flood.Skip(into)
			return
		}
		idx := p.j*p.rpow + p.floodStage + closed
		if idx/p.rpow > p.j {
			p.sawAny = false // a full-depth flood closed with no minimum
		}
		p.j, p.floodStage = idx/p.rpow, idx%p.rpow
		p.flood.Restart(-1, p.qWidth)
		p.flood.Skip(into)
	case mdsHop:
		p.hop.Skip(k)
	case mdsRank:
		closed, into := skipChain(k, p.rank.Idle(), 1)
		if closed == 0 {
			p.rank.Skip(into)
			return
		}
		if p.rankStage == 0 {
			p.candNbrs = p.candNbrs[:0] // no neighboring candidate spoke
		}
		p.rankStage += closed
		p.rank.Restart(-1, -1, p.rankW, p.idw)
		p.rank.Skip(into)
	case mdsVotes:
		closed, into := skipChain(k, p.votes.Idle(), p.rpow)
		if closed == 0 {
			p.votes.Skip(into)
			return
		}
		p.gotVotes = false
		p.j += closed
		p.votes.Restart(-1)
		p.votes.Skip(into)
	case mdsCover:
		p.covRound += k
	}
}

// skipChain splits k silent rounds of a chain of floods whose current flood
// has a silent slices left before its closing slice, and whose later floods
// each span span rounds (the first shared with its predecessor's closing
// slice). It returns how many floods close within the k rounds and how many
// slices the flood then running has stepped: k itself when none closes.
func skipChain(k, a, span int) (closed, into int) {
	if k <= a {
		return 0, k
	}
	k -= a + 1
	return 1 + k/span, k%span + 1
}

// prepareVotes installs this phase's step-4 vote-estimation schedule, shared
// by its r floods: the paper's exact broadcast trick at rpow ≤ 2
// (byte-identical to the r = 2 schedule), the routed exact schedule along
// the captured adoption trees at rpow ≥ 3.
func (p *mdsCongestProgram) prepareVotes() {
	if p.rpow <= 2 {
		p.votes.Prepare(p.voteFor, p.candNbrs, p.candidate, p.idw, p.qWidth, p.rpow)
		return
	}
	p.votes.PrepareRoutes(p.voteFor, p.routes, p.candidate, p.idw, p.qWidth, p.rpow)
}

func (p *mdsCongestProgram) Output() nodeOut {
	return nodeOut{InSolution: p.inDS, InPhaseI: p.fallback}
}
