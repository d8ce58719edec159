package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// TestLeaderRebuildsInducedPower checks the Phase-II gather directly: the
// graph the leader hands its LocalSolver must be exactly Gʳ[U], U = V \ S.
// The recording solver returns the empty cover, so the run's solution is
// Phase I's set S alone and U is known without looking inside the run. At
// r = 2 this covers the paper's F-edge reconstruction (Lemma 3); at every
// other r it covers the StepSparsify certificate gather.
func TestLeaderRebuildsInducedPower(t *testing.T) {
	type alg struct {
		name     string
		weighted bool
		run      func(g *graph.Graph, eps float64, opts *Options) (*Result, error)
	}
	algs := []alg{
		{"mvc-congest", false, ApproxMVCCongest},
		{"mvc-congest-rand", false, ApproxMVCCongestRandomized},
		{"mwvc-congest", true, ApproxMWVCCongest},
		{"clique-det", false, ApproxMVCCliqueDeterministic},
		{"clique-rand", false, ApproxMVCCliqueRandomized},
	}
	type instance struct {
		name string
		g    *graph.Graph
	}
	var graphs []instance
	for _, n := range []int{10, 17, 25, 40} {
		for _, deg := range []float64{1.5, 3, 6} {
			seed := int64(1000*n) + int64(10*deg)
			g := graph.ConnectedGNP(n, deg/float64(n), rand.New(rand.NewSource(seed)))
			graphs = append(graphs, instance{fmt.Sprintf("gnp%d-d%g", n, deg), g})
		}
	}
	for _, shape := range [][2]int{{3, 4}, {6, 2}, {8, 3}, {5, 6}, {13, 2}} {
		graphs = append(graphs, instance{fmt.Sprintf("cat%dx%d", shape[0], shape[1]), graph.Caterpillar(shape[0], shape[1])})
	}

	runs, withS := 0, 0
	for gi, inst := range graphs {
		weighted := graph.WithRandomWeights(inst.g, 20, rand.New(rand.NewSource(int64(gi))))
		for _, a := range algs {
			g := inst.g
			if a.weighted {
				g = weighted
			}
			for r := 1; r <= 4; r++ {
				for _, eps := range []float64{0.25, 0.5, 1} {
					name := fmt.Sprintf("%s/%s/r%d/eps%g", a.name, inst.name, r, eps)
					var got []*graph.Graph
					record := func(h *graph.Graph) *bitset.Set {
						got = append(got, h)
						return bitset.New(h.N())
					}
					res, err := a.run(g, eps, &Options{Seed: int64(gi + r), Power: r, LocalSolver: record})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != 1 {
						t.Fatalf("%s: leader solver called %d times, want 1", name, len(got))
					}
					u := bitset.New(g.N())
					for v := 0; v < g.N(); v++ {
						if !res.Solution.Contains(v) {
							u.Add(v)
						}
					}
					want, _ := g.Power(r).InducedSubgraph(u)
					if err := sameGraph(got[0], want, a.weighted); err != nil {
						t.Fatalf("%s: leader graph is not Gʳ[U]: %v", name, err)
					}
					runs++
					if res.Solution.Count() > 0 {
						withS++
					}
				}
			}
		}
	}
	// Phase I must commit something often enough that U ≠ V is exercised,
	// not only the trivial rebuild of Gʳ itself.
	if withS*4 < runs {
		t.Fatalf("Phase I committed vertices in only %d of %d runs", withS, runs)
	}
	t.Logf("checked %d runs, %d with a non-empty S", runs, withS)
}

// sameGraph reports how h differs from want: vertex count, adjacency rows,
// and (when weighted) vertex weights.
func sameGraph(h, want *graph.Graph, weighted bool) error {
	if h.N() != want.N() {
		return fmt.Errorf("n = %d, want %d", h.N(), want.N())
	}
	for v := 0; v < h.N(); v++ {
		if !slices.Equal(h.Adj(v), want.Adj(v)) {
			return fmt.Errorf("row %d = %v, want %v", v, h.Adj(v), want.Adj(v))
		}
		if weighted && h.Weight(v) != want.Weight(v) {
			return fmt.Errorf("weight of %d = %d, want %d", v, h.Weight(v), want.Weight(v))
		}
	}
	return nil
}
