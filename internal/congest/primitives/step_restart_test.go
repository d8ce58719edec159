package primitives

import (
	"math/rand"
	"reflect"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// restartProbe runs k phases of every restartable primitive at one node: a
// hop maximum, r chained min-floods, r chained rank floods (whose first
// senders and adoption routes set up the phase's vote schedule), then k
// vote floods sharing that schedule. Inputs change with every phase and
// every flood — candidates, samples, abstaining voters, hop depths, and the
// vote schedule itself (routed on odd phases even at r = 2) — so any state a
// restart fails to clear shows up in the log or in the traffic. With fresh
// set, every flood comes from its constructor; otherwise one zero-value
// primitive of each kind is restarted in place throughout.
type restartProbe struct {
	fresh    bool
	r, k     int
	idw      int
	hop      *StepHopMax
	flood    *StepMinFlood
	rank     *StepRankFlood
	votes    *StepCandidateMinFlood
	phase    int
	stage    int
	j        int
	voteFor  int
	prevBest int
	candNbrs []int
	routes   []CandRoute
	out      restartOut
}

// restartOut is one node's log of every flood result, plus how many vote
// floods delivered this candidate a minimum (to keep the test non-vacuous).
type restartOut struct {
	Log      []int64
	VoteMins int
}

func newRestartProbe(nd *congest.Node, fresh bool, r, k int) *restartProbe {
	p := &restartProbe{fresh: fresh, r: r, k: k, idw: congest.IDBits(nd.N())}
	if !fresh {
		p.hop, p.flood, p.rank, p.votes = new(StepHopMax), new(StepMinFlood), new(StepRankFlood), new(StepCandidateMinFlood)
	}
	return p
}

func (p *restartProbe) candidate(v int) bool { return (v+p.phase)%4 == 1 }

func (p *restartProbe) startHop(v int) {
	val, hops := int64((v*7919+p.phase*13)%257), p.r+p.phase%2
	if p.fresh {
		p.hop = NewStepHopMax(val, 9, hops)
		return
	}
	p.hop.Restart(val, 9, hops)
}

func (p *restartProbe) startMinFlood(own int64) {
	if p.fresh {
		p.flood = NewStepMinFlood(own, 10)
		return
	}
	p.flood.Restart(own, 10)
}

func (p *restartProbe) startRankFlood(rank, id int64) {
	if p.fresh {
		p.rank = NewStepRankFlood(rank, id, 6, p.idw)
		return
	}
	p.rank.Restart(rank, id, 6, p.idw)
}

func (p *restartProbe) startVotes(v int) {
	own := int64(-1)
	if p.voteFor >= 0 && (v+p.j)%5 != 0 {
		own = int64((v*65537 + p.phase*257 + p.j*11) % 1021)
	}
	routed := p.r > 2 || p.phase%2 == 1
	cand := p.candidate(v)
	switch {
	case p.fresh && routed:
		p.votes = NewStepCandidateMinFloodRoutes(p.voteFor, own, p.routes, cand, p.idw, 10, p.r)
	case p.fresh:
		p.votes = NewStepCandidateMinFloodR(p.voteFor, own, p.candNbrs, cand, p.idw, 10, p.r)
	default:
		if p.j == 0 && routed {
			p.votes.PrepareRoutes(p.voteFor, p.routes, cand, p.idw, 10, p.r)
		} else if p.j == 0 {
			p.votes.Prepare(p.voteFor, p.candNbrs, cand, p.idw, 10, p.r)
		}
		p.votes.Restart(own)
	}
}

func (p *restartProbe) Step(nd *congest.Node) (bool, error) {
	v := nd.ID()
	for {
		switch p.stage {
		case 0: // phase start: hop maximum
			if p.phase == p.k {
				return true, nil
			}
			p.startHop(v)
			p.stage = 1
		case 1:
			if !p.hop.Step(nd) {
				return false, nil
			}
			p.out.Log = append(p.out.Log, p.hop.Max())
			own := int64(-1)
			if (v+p.phase)%3 == 0 {
				own = int64((v*104729 + p.phase*7) % 509)
			}
			p.startMinFlood(own)
			p.j = 0
			p.stage = 2
		case 2: // r chained min-floods
			if !p.flood.Step(nd) {
				return false, nil
			}
			if p.j++; p.j < p.r {
				p.startMinFlood(p.flood.Min())
				continue
			}
			p.out.Log = append(p.out.Log, p.flood.Min())
			rank := int64(-1)
			p.routes, p.prevBest = p.routes[:0], -1
			if p.candidate(v) {
				rank = int64((v*31 + p.phase*17 + 5) % 64)
				p.routes = append(p.routes, CandRoute{Cand: v, From: -1, Lvl: 0})
				p.prevBest = v
			}
			p.startRankFlood(rank, int64(v))
			p.j = 0
			p.stage = 3
		case 3: // r chained rank floods recording senders and routes
			if !p.rank.Step(nd) {
				return false, nil
			}
			if p.j == 0 {
				p.candNbrs = append(p.candNbrs[:0], p.rank.Senders()...)
			}
			if _, id := p.rank.Best(); id >= 0 && int(id) != p.prevBest {
				p.routes = append(p.routes, CandRoute{Cand: int(id), From: p.rank.BestFrom(), Lvl: p.j + 1})
				p.prevBest = int(id)
			}
			if p.j++; p.j < p.r {
				p.startRankFlood(p.rank.Best())
				continue
			}
			rank, id := p.rank.Best()
			p.out.Log = append(p.out.Log, rank, id, int64(p.rank.BestFrom()), int64(len(p.routes)))
			for _, u := range p.candNbrs {
				p.out.Log = append(p.out.Log, int64(u))
			}
			p.voteFor = int(id)
			p.j = 0
			p.startVotes(v)
			p.stage = 4
		default: // k vote floods sharing the phase's schedule
			if !p.votes.Step(nd) {
				return false, nil
			}
			p.out.Log = append(p.out.Log, p.votes.Min())
			if p.votes.Min() >= 0 {
				p.out.VoteMins++
			}
			if p.j++; p.j < p.k {
				p.startVotes(v)
				continue
			}
			p.phase++
			p.stage = 0
		}
	}
}

func (p *restartProbe) Output() restartOut { return p.out }

// TestStepPrimitivesRestartMatchesFresh chains k floods of every restartable
// primitive by Restart (and the vote flood's Prepare/PrepareRoutes) and
// checks them against freshly constructed floods on the instances of
// TestRHopPrimitivesMatchBFSReference: outputs and Stats must be equal, so
// no candidate minimum, sender, route level or hop count leaks from one
// flood into the next.
func TestStepPrimitivesRestartMatchesFresh(t *testing.T) {
	const k = 4
	for _, n := range []int{9, 17, 26} {
		for _, r := range []int{2, 3} {
			g := graph.ConnectedGNP(n, 2.5/float64(n), rand.New(rand.NewSource(int64(100*n+r))))
			cfg := congest.Config{Graph: g, Model: congest.CONGEST, BandwidthFactor: 8}
			var runs [2]*congest.Result[restartOut]
			for i, fresh := range []bool{true, false} {
				res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[restartOut] {
					return newRestartProbe(nd, fresh, r, k)
				})
				if err != nil {
					t.Fatalf("n=%d r=%d fresh=%v: %v", n, r, fresh, err)
				}
				runs[i] = res
			}
			if runs[0].Stats != runs[1].Stats {
				t.Fatalf("n=%d r=%d: stats differ:\nfresh   %+v\nrestart %+v", n, r, runs[0].Stats, runs[1].Stats)
			}
			votes := 0
			for v := range runs[0].Outputs {
				fresh, restart := runs[0].Outputs[v], runs[1].Outputs[v]
				if !reflect.DeepEqual(fresh, restart) {
					t.Fatalf("n=%d r=%d node %d:\nfresh   %v\nrestart %v", n, r, v, fresh, restart)
				}
				votes += fresh.VoteMins
			}
			if votes == 0 {
				t.Fatalf("n=%d r=%d: no candidate received a vote minimum", n, r)
			}
		}
	}
}
