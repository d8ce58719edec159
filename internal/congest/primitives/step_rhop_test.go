package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// Property tests for the depth-r collectives behind the Gʳ pipeline: on
// random graphs, every primitive must agree with a direct BFS-computed
// r-neighborhood reference, for r = 1…5, sequential and sharded.

// rhopOut is one node's observable outcome of the chained depth-r stages.
type rhopOut struct {
	HopMax   int64  // StepRHopMax over the closed r-ball
	MinFlood int64  // r chained StepMinFloods (-1 = saw nothing)
	RankBest string // r chained StepRankFloods: "rank/id"
	CandNbrs string // first rank-flood senders (the candidate neighbors)
	Near     bool   // StepSparsify reporter: a seed within ⌊(r−1)/2⌋ hops
	CandMin  int64  // depth-r StepCandidateMinFlood at candidates (-1 else)
}

// rhopInputs derives every node's deterministic test inputs from its id:
// which nodes hold min-flood samples, which are rank candidates, which seed
// the sparsify layering (the set U), and who votes for whom in the
// candidate flood.
type rhopInputs struct {
	r int
}

func (in rhopInputs) hopVal(v int) int64 { return int64((v*7919 + 13) % 257) }
func (in rhopInputs) holder(v int) bool  { return v%3 == 0 }
func (in rhopInputs) sample(v int) int64 {
	if !in.holder(v) {
		return -1
	}
	return int64((v*104729 + 7) % 509)
}
func (in rhopInputs) candidate(v int) bool { return v%4 == 1 }
func (in rhopInputs) rank(v int) int64 {
	if !in.candidate(v) {
		return -1
	}
	return int64((v*31 + 5) % 64)
}
func (in rhopInputs) nearSeed(v int) bool { return v%5 == 2 }

// voteFor picks, for every node, the reference-best candidate within r hops
// (the way the MDS pipeline votes after its chained rank floods); -1 when
// none is reachable.
func (in rhopInputs) voteFor(g *graph.Graph, v int) int {
	dist, _ := g.BFS(v)
	bestRank, best := int64(-1), -1
	for u := 0; u < g.N(); u++ {
		if dist[u] < 0 || dist[u] > in.r || !in.candidate(u) {
			continue
		}
		r := in.rank(u)
		if best == -1 || r < bestRank || (r == bestRank && u < best) {
			bestRank, best = r, u
		}
	}
	return best
}

func (in rhopInputs) voteSample(v int) int64 { return int64((v*65537 + 11) % 1021) }

// rhopProgram chains every depth-r primitive at one node. The chained rank
// floods double as the route recorder for the exact candidate flood: each
// adoption of a new running best is kept as a CandRoute, exactly the way
// the MDS program captures its relay trees.
type rhopProgram struct {
	in      rhopInputs
	voteFor int

	stage     int
	hop       *StepHopMax
	flood     *StepMinFlood
	floodHops int
	rank      *StepRankFlood
	rankHops  int
	candNbrs  []int
	routes    []CandRoute
	prevBest  int
	near      *StepSparsify
	votes     *StepCandidateMinFlood
	out       rhopOut
}

func (p *rhopProgram) Step(nd *congest.Node) (bool, error) {
	for {
		switch p.stage {
		case 0:
			if p.hop == nil {
				p.hop = NewStepRHopMax(p.in.hopVal(nd.ID()), p.in.r)
			}
			if !p.hop.Step(nd) {
				return false, nil
			}
			p.out.HopMax = p.hop.Max()
			p.flood = NewStepMinFlood(p.in.sample(nd.ID()), 12)
			p.floodHops = 1
			p.stage = 1
		case 1:
			if !p.flood.Step(nd) {
				return false, nil
			}
			if p.floodHops < p.in.r {
				p.flood = NewStepMinFlood(p.flood.Min(), 12)
				p.floodHops++
				continue
			}
			p.out.MinFlood = p.flood.Min()
			p.rank = NewStepRankFlood(p.in.rank(nd.ID()), int64(nd.ID()), 8, congest.IDBits(nd.N()))
			p.rankHops = 1
			p.prevBest = -1
			if p.in.candidate(nd.ID()) {
				p.routes = append(p.routes, CandRoute{Cand: nd.ID(), From: -1, Lvl: 0})
				p.prevBest = nd.ID()
			}
			p.stage = 2
		case 2:
			if !p.rank.Step(nd) {
				return false, nil
			}
			if p.rankHops == 1 {
				p.candNbrs = p.rank.Senders()
			}
			if _, id := p.rank.Best(); id >= 0 && int(id) != p.prevBest {
				p.routes = append(p.routes, CandRoute{Cand: int(id), From: p.rank.BestFrom(), Lvl: p.rankHops})
				p.prevBest = int(id)
			}
			if p.rankHops < p.in.r {
				r, id := p.rank.Best()
				p.rank = NewStepRankFlood(r, id, 8, congest.IDBits(nd.N()))
				p.rankHops++
				continue
			}
			r, id := p.rank.Best()
			p.out.RankBest = fmt.Sprintf("%d/%d", r, id)
			p.out.CandNbrs = fmt.Sprint(p.candNbrs)
			var seedNbrs []int
			for _, u := range nd.Neighbors() {
				if p.in.nearSeed(u) {
					seedNbrs = append(seedNbrs, u)
				}
			}
			p.near = NewStepSparsify(p.in.r, p.in.nearSeed(nd.ID()), seedNbrs)
			p.stage = 3
		case 3:
			if !p.near.Step(nd) {
				return false, nil
			}
			p.out.Near = p.near.Near()
			own := int64(-1)
			if p.voteFor >= 0 {
				own = p.in.voteSample(nd.ID())
			}
			if p.in.r <= 2 {
				p.votes = NewStepCandidateMinFloodR(p.voteFor, own, p.candNbrs,
					p.in.candidate(nd.ID()), congest.IDBits(nd.N()), 12, p.in.r)
			} else {
				p.votes = NewStepCandidateMinFloodRoutes(p.voteFor, own, p.routes,
					p.in.candidate(nd.ID()), congest.IDBits(nd.N()), 12, p.in.r)
			}
			p.stage = 4
		default:
			if !p.votes.Step(nd) {
				return false, nil
			}
			p.out.CandMin = p.votes.Min()
			return true, nil
		}
	}
}

func (p *rhopProgram) Output() rhopOut { return p.out }

// rhopReference computes every node's expected outcome straight from BFS
// distances.
func rhopReference(g *graph.Graph, in rhopInputs, voteFor []int) []rhopOut {
	n := g.N()
	out := make([]rhopOut, n)
	for v := 0; v < n; v++ {
		dist, _ := g.BFS(v)
		o := &out[v]
		o.MinFlood, o.CandMin = -1, -1
		bestRank, bestID := int64(-1), int64(-1)
		for u := 0; u < n; u++ {
			if dist[u] < 0 || dist[u] > in.r {
				continue
			}
			if val := in.hopVal(u); val > o.HopMax {
				o.HopMax = val
			}
			if s := in.sample(u); s >= 0 && (o.MinFlood < 0 || s < o.MinFlood) {
				o.MinFlood = s
			}
			if r := in.rank(u); r >= 0 {
				if bestRank < 0 || r < bestRank || (r == bestRank && int64(u) < bestID) {
					bestRank, bestID = r, int64(u)
				}
			}
			if in.nearSeed(u) && dist[u] <= (in.r-1)/2 {
				o.Near = true
			}
		}
		o.RankBest = fmt.Sprintf("%d/%d", bestRank, bestID)
		var cand []int
		for _, u := range g.Adj(v) {
			if in.candidate(u) {
				cand = append(cand, u)
			}
		}
		if cand == nil {
			cand = []int{}
		}
		o.CandNbrs = fmt.Sprint(cand)
	}
	// Candidate vote minima: exact at every depth (the legacy broadcast
	// schedule serves r ≤ 2, the routed relay schedule serves r ≥ 3).
	for c := 0; c < n; c++ {
		if !in.candidate(c) {
			continue
		}
		dist, _ := g.BFS(c)
		for v := 0; v < n; v++ {
			if dist[v] < 0 || dist[v] > in.r || voteFor[v] != c {
				continue
			}
			if s := in.voteSample(v); out[c].CandMin < 0 || s < out[c].CandMin {
				out[c].CandMin = s
			}
		}
	}
	return out
}

// TestRHopPrimitivesMatchBFSReference is the satellite property test: on
// random connected graphs, the depth-r collectives agree with the BFS
// reference for r = 1…5, sequential and sharded. The candidate flood is asserted
// EXACT at every depth: the legacy broadcast schedule at r ≤ 2, the routed
// relay schedule (NewStepCandidateMinFloodRoutes over the adoption routes
// recorded from the chained rank floods) at r ≥ 3.
func TestRHopPrimitivesMatchBFSReference(t *testing.T) {
	for _, n := range []int{9, 17, 26} {
		for r := 1; r <= 5; r++ {
			g := graph.ConnectedGNP(n, 2.5/float64(n), rand.New(rand.NewSource(int64(100*n+r))))
			in := rhopInputs{r: r}
			voteFor := make([]int, n)
			for v := 0; v < n; v++ {
				voteFor[v] = in.voteFor(g, v)
			}
			want := rhopReference(g, in, voteFor)

			// The sequential and a sharded sweep: the routed candidate
			// flood must be exact under the shard barrier too.
			cfgs := []congest.Config{
				{Graph: g, Model: congest.CONGEST, BandwidthFactor: 8},
				{Graph: g, Model: congest.CONGEST, Shards: 3, BandwidthFactor: 8},
			}
			engineOuts := make([][]rhopOut, len(cfgs))
			for i, cfg := range cfgs {
				res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[rhopOut] {
					return &rhopProgram{in: in, voteFor: voteFor[nd.ID()]}
				})
				if err != nil {
					t.Fatalf("n=%d r=%d sh=%d: %v", n, r, cfg.Shards, err)
				}
				engineOuts[i] = res.Outputs
				if i > 0 && !reflect.DeepEqual(engineOuts[0], engineOuts[i]) {
					t.Fatalf("n=%d r=%d: shards=%d diverges from the sequential sweep", n, r, cfg.Shards)
				}
			}

			for v, got := range engineOuts[0] {
				w := want[v]
				if got.HopMax != w.HopMax || got.MinFlood != w.MinFlood ||
					got.RankBest != w.RankBest || got.CandNbrs != w.CandNbrs || got.Near != w.Near {
					t.Fatalf("n=%d r=%d node %d:\ngot  %+v\nwant %+v", n, r, v, got, w)
				}
				if !in.candidate(v) {
					if got.CandMin != -1 {
						t.Fatalf("n=%d r=%d node %d: non-candidate reported vote min %d", n, r, v, got.CandMin)
					}
					continue
				}
				if got.CandMin != w.CandMin {
					t.Fatalf("n=%d r=%d candidate %d: vote min %d, want exact %d", n, r, v, got.CandMin, w.CandMin)
				}
			}
		}
	}
}
