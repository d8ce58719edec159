package kernel

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// The dominating-set search golden pins exact.DominatingSet's set and
// branch-and-bound node count, where a half budget trips, and
// exact.GreedyDominatingSet's set. On instances with zero-weight vertices
// any subset of them may join an optimum at no cost, so there the golden
// pins the cost and the positive-weight part of the set; elsewhere the
// positive-weight part is the whole set.
//
// Regenerate with:
//
//	go test ./internal/kernel/ -run TestDSSearchGolden -update-golden
//
// but only from a commit whose search behavior is known-good, and only when
// that behavior legitimately changes.

const dsSearchGoldenPath = "testdata/ds_search_golden.json"

// dsSearchRecord is everything the golden pins for one instance.
type dsSearchRecord struct {
	N      int     `json:"n"`
	M      int     `json:"m"`
	Set    string  `json:"set"`
	Cost   int64   `json:"cost"`
	Nodes  int64   `json:"nodes"`
	Trip   tripRun `json:"trip"`
	Greedy string  `json:"greedy"`
}

// withSmallWeights returns a copy of g with weights in [0, 4], so about a
// fifth of the vertices are free.
func withSmallWeights(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.MustAddEdge(e[0], e[1])
	}
	for v := 0; v < g.N(); v++ {
		b.SetWeight(v, rng.Int63n(5))
	}
	return b.Build()
}

// dsSearchCorpus builds the pinned instances: connected G(n, c/n) for
// n ∈ {30, 60} and c ∈ {2, 3}, one random tree and one caterpillar, each
// unweighted, with weights in [1, 20] and with weights in [0, 4], and each
// both as is and squared (the G²-MDS instance).
func dsSearchCorpus() map[string]*graph.Graph {
	type base struct {
		name string
		g    *graph.Graph
	}
	var bases []base
	for _, n := range []int{30, 60} {
		for _, c := range []int{2, 3} {
			seed := int64(1000*c + n)
			bases = append(bases, base{fmt.Sprintf("gnp-n%d-c%d", n, c), graph.ConnectedGNP(n, float64(c)/float64(n), rand.New(rand.NewSource(seed)))})
		}
	}
	bases = append(bases,
		base{"tree-n60", graph.RandomTree(60, rand.New(rand.NewSource(5)))},
		base{"caterpillar-12x3", graph.Caterpillar(12, 3)})

	out := make(map[string]*graph.Graph)
	add := func(name string, g *graph.Graph) {
		out[name] = g
		out[name+"-sq"] = g.Square()
	}
	for i, b := range bases {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		add(b.name, b.g)
		add("w"+b.name, graph.WithRandomWeights(b.g, 20, rng))
		add("z"+b.name, withSmallWeights(b.g, rng))
	}
	return out
}

// positivePart renders the positive-weight vertices of s.
func positivePart(g *graph.Graph, s *bitset.Set) string {
	if s == nil {
		return ""
	}
	pos := bitset.New(g.N())
	s.ForEach(func(v int) bool {
		if g.Weight(v) > 0 {
			pos.Add(v)
		}
		return true
	})
	return pos.String()
}

func dsSearchRecordOf(g *graph.Graph) dsSearchRecord {
	set, nodes := exact.DominatingSetCounted(g)
	rec := dsSearchRecord{
		N: g.N(), M: g.M(),
		Set:    positivePart(g, set),
		Cost:   g.SetWeightOf(set),
		Nodes:  nodes,
		Greedy: exact.GreedyDominatingSet(g).String(),
	}
	budget := max(nodes/2, 1)
	tripped, err := exact.DominatingSetBounded(g, budget)
	rec.Trip = tripRun{Budget: budget, Err: errString(err), Cover: positivePart(g, tripped)}
	return rec
}

// TestDSSearchGolden replays the dominating-set entry points on the corpus
// and compares against testdata/ds_search_golden.json.
func TestDSSearchGolden(t *testing.T) {
	got := make(map[string]dsSearchRecord)
	for name, g := range dsSearchCorpus() {
		got[name] = dsSearchRecordOf(g)
	}

	if *updateGolden {
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dsSearchGoldenPath, append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), dsSearchGoldenPath)
		return
	}

	raw, err := os.ReadFile(dsSearchGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	var want map[string]dsSearchRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from the current corpus", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s: search behavior drifted:\ngolden:  %s\ncurrent: %s", key, wj, gj)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}
