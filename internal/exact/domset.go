package exact

import (
	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// Minimum dominating set is the set cover whose universe is V and whose
// candidate sets are the closed neighborhoods N[v] at weight w(v); the
// dominating-set entry points build that instance and run the set-cover
// search and greedy on it. Every zero-weight vertex dominates for free, so
// it is always in the returned set (the gadget constructions of Section 7
// rely on this, cf. Lemma 36's "we can assume A*[3] is in the dominating
// set because its weight is zero").

// DominatingSet returns a minimum-weight dominating set of g (minimum
// cardinality when g is unweighted). For the G²-MDS problem callers pass
// g.Square().
func DominatingSet(g *graph.Graph) *bitset.Set {
	s, _ := DominatingSetCounted(g)
	return s
}

// DominatingSetCounted is DominatingSet plus the number of branch-and-bound
// nodes the search expanded — the observability counter behind
// kernel.Report.SearchNodes.
func DominatingSetCounted(g *graph.Graph) (*bitset.Set, int64) {
	s, nodes, err := dominatingSetBounded(g, 0)
	if err != nil {
		panic("exact: unreachable: unbounded search returned error")
	}
	return s, nodes
}

// DominatingSetBounded is DominatingSet with a branch-and-bound node budget;
// maxNodes == 0 means unlimited. On budget exhaustion it returns
// ErrBudgetExceeded and no set.
func DominatingSetBounded(g *graph.Graph, maxNodes int64) (*bitset.Set, error) {
	s, _, err := dominatingSetBounded(g, maxNodes)
	return s, err
}

func dominatingSetBounded(g *graph.Graph, maxNodes int64) (*bitset.Set, int64, error) {
	chosen, nodes, err := SetCoverBounded(closedNeighborhoods(g), maxNodes)
	if err != nil {
		return nil, nodes, err
	}
	return bitset.FromIndices(g.N(), chosen...), nodes, nil
}

// closedNeighborhoods is the set-cover instance of dominating set on g.
func closedNeighborhoods(g *graph.Graph) *SetCoverInstance {
	n := g.N()
	in := &SetCoverInstance{UniverseSize: n, Sets: make([]*bitset.Set, n)}
	if g.Weighted() {
		in.Weights = make([]int64, n)
	}
	for v := 0; v < n; v++ {
		in.Sets[v] = g.ClosedNeighborhood(v)
		if in.Weights != nil {
			in.Weights[v] = g.Weight(v)
		}
	}
	return in
}

// GreedyDominatingSet returns the classical greedy dominating set: repeatedly
// take the vertex maximizing newly-dominated-count per unit weight. This is
// the ln(Δ+1)-approximation baseline the paper's Theorem 28 is compared
// against, and the initial incumbent of the exact search.
func GreedyDominatingSet(g *graph.Graph) *bitset.Set {
	return bitset.FromIndices(g.N(), GreedySetCover(closedNeighborhoods(g))...)
}
