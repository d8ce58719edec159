package graph

import (
	"fmt"
	"slices"

	"powergraph/internal/bitset"
)

// powerDenseCutoff selects the Gʳ construction strategy. At or below the
// cutoff the classical bitset reach-set expansion wins (word-parallel ORs,
// O(n²/64) per expansion, unbeatable on dense balls); above it the
// bounded-BFS sweep over the CSR arrays is used, whose work is
// Σ_v |ball_r(v)| + |edges(ball_r(v))| — linear-ish on the sparse graphs
// that are the only feasible inputs at that scale — and whose memory stays
// O(n + m(Gʳ)) instead of O(n²).
const powerDenseCutoff = 1 << 12

// Square returns G² = (V, F) where {u,v} ∈ F iff 0 < dist_G(u,v) ≤ 2.
//
// Vertex weights and names carry over unchanged. This is the object the
// paper's problems (G²-MVC, G²-MDS) are defined on; the distributed
// algorithms never materialize it (they communicate over G only), but the
// checkers, exact solvers, and centralized algorithms do.
func (g *Graph) Square() *Graph {
	return g.Power(2)
}

// Power returns Gʳ, connecting u and v iff 0 < dist_G(u,v) ≤ r.
// Power(1) returns a structural copy of g. r must be ≥ 1.
func (g *Graph) Power(r int) *Graph {
	if r < 1 {
		panic(fmt.Sprintf("graph: Power(%d) with r < 1", r))
	}
	var p *Graph
	if g.n <= powerDenseCutoff {
		p = g.powerDense(r)
	} else {
		p = g.powerBFS(r)
	}
	p.weights, p.names = g.weights, g.names // immutable, so shared
	return p
}

// powerDense is the reach-set expansion: reach_{k+1}[v] = reach_k[v] ∪
// ⋃_{u ∈ N(v)} reach_k[u]. Starting from reach_1 = N[v], after r-1
// expansions reach[v] = ball of radius r around v.
func (g *Graph) powerDense(r int) *Graph {
	reach := make([]*bitset.Set, g.n)
	for v := 0; v < g.n; v++ {
		reach[v] = g.ClosedNeighborhood(v)
	}
	for k := 1; k < r; k++ {
		next := make([]*bitset.Set, g.n)
		for v := 0; v < g.n; v++ {
			s := reach[v].Clone()
			for _, u := range g.Adj(v) {
				s.Or(reach[u])
			}
			next[v] = s
		}
		reach = next
	}
	indptr := make([]int32, g.n+1)
	total := 0
	for v := 0; v < g.n; v++ {
		total += reach[v].Count() - 1 // ball minus v itself
	}
	flat := make([]int, 0, total)
	for v := 0; v < g.n; v++ {
		reach[v].ForEach(func(u int) bool {
			if u != v {
				flat = append(flat, u)
			}
			return true
		})
		indptr[v+1] = int32(len(flat))
	}
	return fromCSR(g.n, indptr, flat)
}

// powerBFS computes each vertex's radius-r ball with a bounded breadth-first
// search over the neighbor slab, writing the result CSR directly: no
// per-vertex sets, no intermediate adjacency maps, no Builder edge map. The
// visited array is epoch-stamped so it is cleared once, not once per vertex,
// keeping the whole construction alloc-flat (a handful of amortized slice
// growths regardless of n — see BenchmarkPowerSparse and
// TestPowerSparseAllocsFlat). The rows' total size is unknown until the
// sweep ends, so they grow in a transient int32 buffer, half the bytes to
// copy per growth, and are widened once into the exact-size slab.
func (g *Graph) powerBFS(r int) *Graph {
	indptr := make([]int32, g.n+1)
	rows := make([]int32, 0, 2*g.m)
	visited := make([]int32, g.n) // epoch mark: visited[u] == v+1 ⇔ u in v's ball
	var cur, next []int
	for v := 0; v < g.n; v++ {
		rows = appendBall(g, rows, v, r, visited, &cur, &next)
		indptr[v+1] = int32(len(rows))
	}
	flat := make([]int, len(rows))
	for i, u := range rows {
		flat[i] = int(u)
	}
	return fromCSR(g.n, indptr, flat)
}

// appendBall appends v's Gʳ row in g — every vertex at distance 1…r from v,
// sorted — to dst by a bounded BFS. visited is epoch-stamped with v+1, so
// the caller needs no clearing between vertices as long as it passes each
// vertex at most once per visited array; cur and next are reusable frontier
// buffers. Power and IncrementalPower share it, so their rows agree.
func appendBall[T int | int32](g *Graph, dst []T, v, r int, visited []int32, cur, next *[]int) []T {
	epoch := int32(v + 1)
	visited[v] = epoch
	c := append((*cur)[:0], v)
	nx := *next
	rowStart := len(dst)
	for depth := 0; depth < r && len(c) > 0; depth++ {
		nx = nx[:0]
		for _, u := range c {
			for _, w := range g.Adj(u) {
				if visited[w] != epoch {
					visited[w] = epoch
					nx = append(nx, w)
					dst = append(dst, T(w))
				}
			}
		}
		c, nx = nx, c
	}
	// slices.Sort, not sort.Slice: the reflection-based sorter allocates
	// per call, which would turn the sweep's allocation count O(n).
	slices.Sort(dst[rowStart:])
	*cur, *next = c, nx
	return dst
}

// InducedSubgraph returns the subgraph of g induced by the vertex set keep,
// along with the mapping orig[i] = original id of new vertex i.
// Weights and names of kept vertices carry over.
func (g *Graph) InducedSubgraph(keep *bitset.Set) (sub *Graph, orig []int) {
	orig = keep.Elements()
	index := make(map[int]int, len(orig))
	for i, v := range orig {
		index[v] = i
	}
	b := NewBuilder(len(orig))
	for i, v := range orig {
		if g.weights != nil {
			b.SetWeight(i, g.weights[v])
		}
		if g.names != nil && g.names[v] != "" {
			b.SetName(i, g.names[v])
		}
		for _, u := range g.Adj(v) {
			if j, ok := index[u]; ok && i < j {
				b.MustAddEdge(i, j)
			}
		}
	}
	return b.Build(), orig
}

// SquareInduced returns G²[S]: the subgraph of the square induced by S,
// where distance is measured in g (the paper's notation, Section 2). The
// returned mapping orig translates new ids back to ids in g.
func (g *Graph) SquareInduced(s *bitset.Set) (sub *Graph, orig []int) {
	return g.Square().InducedSubgraph(s)
}

// TwoHopNeighborhood returns N²(v): all vertices at distance 1 or 2 from v
// in g, excluding v itself. Built by walking the CSR rows, so it needs no
// adjacency bitsets and works at any scale (one O(n)-bit set is allocated
// for the result).
func (g *Graph) TwoHopNeighborhood(v int) *bitset.Set {
	s := bitset.New(g.n)
	for _, u := range g.Adj(v) {
		s.Add(u)
		for _, w := range g.Adj(u) {
			s.Add(w)
		}
	}
	s.Remove(v)
	return s
}
