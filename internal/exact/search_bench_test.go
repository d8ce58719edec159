package exact

import (
	"fmt"
	"math/rand"
	"testing"

	"powergraph/internal/graph"
)

type searchInstance struct {
	name string
	g    *graph.Graph
}

// searchCorpus is the allocation-guard and benchmark instance set: squares
// of connected G(150, c/150) for c ∈ {3, 4} — raw leader-shaped instances
// the search cracks in a few thousand nodes.
func searchCorpus() []searchInstance {
	const n = 150
	var out []searchInstance
	for _, c := range []int{3, 4} {
		g := graph.ConnectedGNP(n, float64(c)/n, rand.New(rand.NewSource(int64(c))))
		out = append(out, searchInstance{fmt.Sprintf("gnp-n%d-c%d", n, c), g.Square()})
	}
	return out
}

// TestVertexCoverSearchAllocsBounded pins the search's reuse contract: it
// allocates per call (scratch frames growing with the depth reached) and
// per improved incumbent, never per search node. A call stays under 10·n
// allocations however many nodes it expands.
func TestVertexCoverSearchAllocsBounded(t *testing.T) {
	for _, inst := range searchCorpus() {
		g := inst.g
		limit := float64(10 * g.N())

		var nodes int64
		allocs := testing.AllocsPerRun(1, func() {
			_, nodes, _ = VertexCoverBounded(g, 0, nil)
		})
		if allocs > limit {
			t.Errorf("%s: search made %.0f allocations over %d nodes, want < %.0f",
				inst.name, allocs, nodes, limit)
		}
	}
}

// BenchmarkVertexCoverSearch times the unbounded search on the corpus; run
// with -benchmem to see the per-call allocation figures the guard above
// bounds. Part of `make bench-kernel`.
func BenchmarkVertexCoverSearch(b *testing.B) {
	for _, inst := range searchCorpus() {
		g := inst.g
		b.Run(inst.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				_, nodes, _ = VertexCoverBounded(g, 0, nil)
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// setCoverCorpus is the set-cover allocation guard's instance set: the
// dominating-set instances of weighted G(60, c/60) for c ∈ {2, 3} and of a
// weighted random 60-vertex tree, which the search cracks in thousands
// of nodes.
func setCoverCorpus() []searchInstance {
	const n = 60
	var out []searchInstance
	for _, c := range []int{2, 3} {
		g := graph.ConnectedGNP(n, float64(c)/n, rand.New(rand.NewSource(int64(1000*c+n))))
		g = graph.WithRandomWeights(g, 40, rand.New(rand.NewSource(int64(1000*c+n+1))))
		out = append(out, searchInstance{fmt.Sprintf("wgnp-n%d-c%d", n, c), g})
	}
	tree := graph.WithRandomWeights(graph.RandomTree(n, rand.New(rand.NewSource(5))), 40, rand.New(rand.NewSource(6)))
	return append(out, searchInstance{fmt.Sprintf("wtree-n%d", n), tree})
}

// TestSetCoverSearchAllocsBounded pins the set-cover search's reuse
// contract, as TestVertexCoverSearchAllocsBounded does the vertex-cover
// one: scratch is allocated per call and grows with the depth reached,
// never per search node, so a call stays under 10·n allocations however
// many nodes it expands.
func TestSetCoverSearchAllocsBounded(t *testing.T) {
	for _, inst := range setCoverCorpus() {
		g := inst.g
		limit := float64(10 * g.N())

		var nodes int64
		allocs := testing.AllocsPerRun(1, func() {
			_, nodes = DominatingSetCounted(g)
		})
		if allocs > limit {
			t.Errorf("%s: search made %.0f allocations over %d nodes, want < %.0f",
				inst.name, allocs, nodes, limit)
		}
	}
}
