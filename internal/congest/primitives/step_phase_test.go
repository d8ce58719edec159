package primitives

import (
	"fmt"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// cliqueOut is the observable outcome of the clique-collective chain.
type cliqueOut struct {
	Hop2      int64
	Leader    int
	On        string
	Collected string
}

// stepCliqueChain chains the clique-model step primitives: a 2-hop max, a
// one-round clique leader election, a status exchange, and Lemma 9's direct
// gather at the leader.
type stepCliqueChain struct {
	stage  int
	hop    *StepHopMax
	leader *StepCliqueLeader
	status *StepStatusExchange
	gather *StepDirectGather
	out    cliqueOut
}

func (p *stepCliqueChain) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if p.hop == nil {
				p.hop = NewStepTwoHopMax(int64(nd.ID() * 7 % 13))
			}
			if !p.hop.Step(nd) {
				return false, nil
			}
			p.out.Hop2 = p.hop.Max()
			p.leader = NewStepCliqueLeader(nd)
			p.stage = 1
		case 1:
			if !p.leader.Step(nd) {
				return false, nil
			}
			p.out.Leader = p.leader.Leader()
			p.status = NewStepStatusExchange(nd.ID()%3 == 0)
			p.stage = 2
		case 2:
			if !p.status.Step(nd) {
				return false, nil
			}
			p.out.On = fmt.Sprint(p.status.On())
			items := []congest.Message{congest.NewInt(int64(nd.ID()))}
			if nd.ID()%2 == 0 {
				items = append(items, congest.NewInt(int64(nd.ID()+100)))
			}
			p.gather = NewStepDirectGather(p.out.Leader, items, 2)
			p.stage = 3
		default:
			if !p.gather.Step(nd) {
				return false, nil
			}
			p.out.Collected = fmt.Sprint(p.gather.Collected())
			return true, nil
		}
	}
}

func (p *stepCliqueChain) Output() cliqueOut { return p.out }

// TestStepEstimatorFloods exercises StepMinFlood, StepHopMax, and
// StepRankFlood directly on a known topology: a path where exactly one node
// holds a sample.
func TestStepEstimatorFloods(t *testing.T) {
	g := graph.Path(5)
	prog := func(nd *congest.Node) congest.StepProgram[estimatorOut] {
		return &estimatorProbe{}
	}
	res, err := congest.RunProgram(congest.Config{Graph: g, Seed: 1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range res.Outputs {
		// Node 2 holds sample 42; after one flood its G-neighbors see it.
		wantMin := int64(-1)
		if v >= 1 && v <= 3 {
			wantMin = 42
		}
		if o.Min != wantMin {
			t.Errorf("node %d min = %d, want %d", v, o.Min, wantMin)
		}
		// 2 hops of max over values = id: nodes see max id within 2 hops.
		wantHop := int64(min(v+2, 4))
		if o.HopMax != wantHop {
			t.Errorf("node %d hopMax = %d, want %d", v, o.HopMax, wantHop)
		}
		// Only node 3 holds rank 5; neighbors learn (5, 3).
		if v >= 2 && v <= 4 {
			if o.Rank != 5 || o.RankID != 3 {
				t.Errorf("node %d rank = (%d,%d), want (5,3)", v, o.Rank, o.RankID)
			}
			if v != 3 && o.Senders != 1 {
				t.Errorf("node %d saw %d rank senders, want 1", v, o.Senders)
			}
		} else if o.RankID != -1 {
			t.Errorf("node %d rankID = %d, want -1", v, o.RankID)
		}
	}
}

type estimatorOut struct {
	Min     int64
	HopMax  int64
	Rank    int64
	RankID  int64
	Senders int
}

type estimatorProbe struct {
	stage int
	mf    *StepMinFlood
	hm    *StepHopMax
	rf    *StepRankFlood
	out   estimatorOut
}

func (p *estimatorProbe) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if p.mf == nil {
				own := int64(-1)
				if nd.ID() == 2 {
					own = 42
				}
				p.mf = NewStepMinFlood(own, 8)
			}
			if !p.mf.Step(nd) {
				return false, nil
			}
			p.out.Min = p.mf.Min()
			p.hm = NewStepHopMax(int64(nd.ID()), 4, 2)
			p.stage = 1
		case 1:
			if !p.hm.Step(nd) {
				return false, nil
			}
			p.out.HopMax = p.hm.Max()
			rank := int64(-1)
			if nd.ID() == 3 {
				rank = 5
			}
			p.rf = NewStepRankFlood(rank, int64(nd.ID()), 8, 4)
			p.stage = 2
		default:
			if !p.rf.Step(nd) {
				return false, nil
			}
			p.out.Rank, p.out.RankID = p.rf.Best()
			p.out.Senders = len(p.rf.Senders())
			return true, nil
		}
	}
}

func (p *estimatorProbe) Output() estimatorOut { return p.out }
