package graph

import (
	"fmt"
	"slices"
)

// IncPowerStats reports what IncrementalPower did: how many vertices' Gʳ
// rows it classified dirty, and whether it abandoned splicing for a full
// Power(r) recompute because the dirty region covered too much of the graph.
type IncPowerStats struct {
	Dirty int
	Full  bool
}

// incPowerFullFraction is the dirty-region fallback threshold: when more
// than half the vertices need their rows recomputed, a full Power(r) sweep
// is at most a small constant factor more work than splicing and avoids the
// overhead of the union-graph BFS bookkeeping.
const incPowerFullFraction = 2

// IncrementalPower maintains a power graph under edge churn. Given
//
//   - view: the communication graph after applying edits,
//   - oldPower: the power graph of the view before the edits
//     (i.e. oldView.Power(r) for view = oldView ± edits),
//   - the batch of edits itself,
//
// it returns a graph whose canonical CSR (IndPtr, Indices), weights and
// names are identical to view.Power(r)'s, by recomputing only the rows of
// *dirty* vertices and sharing the rest with oldPower. The cost is O(n) plus
// the dirty work (the dirty-region BFS and the recomputed rows), plus an
// amortized share of slab compaction (see withRows); oldPower stays valid
// and unchanged.
//
// The dirty-region invariant: if the Gʳ row of a vertex w differs between
// oldView and view, then some path of length ≤ r from w runs through a
// churned edge {u, v}, so w is within distance r-1 of u or v — in whichever
// of the two graphs realizes the path. The BFS therefore runs on the union
// graph (view plus the batch-deleted edges, a supergraph of both oldView and
// view), whose distances lower-bound both, making the computed dirty set a
// superset of every vertex whose row can have changed. Clean rows are
// shared verbatim; since every Power construction emits sorted rows, the
// result is exact.
//
// When the dirty set exceeds 1/incPowerFullFraction of the vertices the
// function falls back to view.Power(r) outright (Stats.Full reports this);
// the result is identical either way.
func IncrementalPower(view, oldPower *Graph, r int, edits []EdgeEdit) (*Graph, IncPowerStats) {
	if r < 1 {
		panic(fmt.Sprintf("graph: IncrementalPower(%d) with r < 1", r))
	}
	if view.n != oldPower.n {
		panic(fmt.Sprintf("graph: IncrementalPower vertex count mismatch: view %d, oldPower %d", view.n, oldPower.n))
	}
	n := view.n
	if len(edits) == 0 {
		return oldPower, IncPowerStats{}
	}

	// Adjacency of the union graph = view plus batch-deleted edges. Inserted
	// edges are already in view; deleted edges are re-attached here so the
	// BFS can also follow paths that existed only before the batch.
	extra := make(map[int][]int)
	for _, e := range edits {
		if e.Del {
			extra[e.U] = append(extra[e.U], e.V)
			extra[e.V] = append(extra[e.V], e.U)
		}
	}

	// Multi-source BFS to depth r-1 from every churned endpoint.
	dirty := make([]bool, n)
	var vs, cur, next []int
	mark := func(w int) {
		if !dirty[w] {
			dirty[w] = true
			vs = append(vs, w)
			next = append(next, w)
		}
	}
	for _, e := range edits {
		mark(e.U)
		mark(e.V)
	}
	cur, next = next, cur
	for depth := 0; depth < r-1 && len(cur) > 0; depth++ {
		next = next[:0]
		for _, u := range cur {
			for _, w := range view.Adj(u) {
				mark(w)
			}
			for _, w := range extra[u] {
				mark(w)
			}
		}
		cur, next = next, cur
	}
	nDirty := len(vs)

	if nDirty*incPowerFullFraction > n {
		return view.Power(r), IncPowerStats{Dirty: nDirty, Full: true}
	}

	// Recompute the dirty rows by the same bounded BFS powerBFS runs, so
	// they come out identical to a full rebuild's.
	slices.Sort(vs)
	visited := make([]int32, n)
	p := oldPower.withRows(vs, func(dst []int, v int) []int {
		return appendBall(view, dst, v, r, visited, &cur, &next)
	})
	p.weights, p.names = view.weights, view.names
	return p, IncPowerStats{Dirty: nDirty}
}
