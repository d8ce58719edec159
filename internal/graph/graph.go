// Package graph provides the static undirected graph substrate used by every
// other package in this repository: flat CSR-style adjacency storage (a row
// table over one neighbor slab, in the style of large-scale graph engines,
// which churn successors extend copy-on-write), vertex weights,
// power-graph (G², Gʳ) computation, generators, and basic traversal
// algorithms. Dense-graph helpers (adjacency bitset rows) are kept for small
// graphs, where O(n) bits per vertex is cheap, and elided above a size
// cutoff so million-node graphs stay O(n + m) memory.
//
// Graphs are immutable after construction via Builder, which makes them safe
// to share — across the CONGEST simulator's nodes (either engine, any shard
// count) and across harness workers running simulations on the same
// instance — without locking.
package graph

import (
	"fmt"
	"math"
	"slices"

	"powergraph/internal/bitset"
)

// rowsCutoff bounds the vertex count up to which adjacency bitset rows are
// materialized eagerly at Build time. Rows cost n bits per vertex (O(n²)
// total), which is fine at kernel/oracle scale but fatal at n ≈ 10⁶
// (≈ 125 GB); above the cutoff HasEdge falls back to binary search over the
// CSR row and AdjRow materializes on demand.
const rowsCutoff = 1 << 14

// Graph is an immutable, simple (no self-loops, no multi-edges), undirected
// graph on vertices {0, …, n-1} with optional positive vertex weights.
//
// Adjacency lives in a row table over a neighbor slab: v's sorted neighbor
// row is flat[lo[v]:hi[v]], and Adj hands that range out directly. On graphs
// made by Build and Power the rows are laid out in vertex order and lo/hi
// alias one CSR offset array, indptr. Churn successors (Overlay.Materialize,
// IncrementalPower) copy the row table, append only their recomputed rows
// to the parent's slab, and point those rows' entries at them, so a version
// costs O(n) plus its dirty rows rather than a rewrite of every row. Such a
// patched graph has no indptr; IndPtr and Indices rebuild the canonical
// compact CSR on demand.
//
// All accessors are safe for concurrent use because a version never changes
// after construction: successors only write slab entries past the end of
// every existing version's view.
type Graph struct {
	n       int
	m       int
	lo, hi  []int32       // row table: v's neighbors are flat[lo[v]:hi[v]]
	flat    []int         // this version's prefix of the slab
	slab    *slab         // who may extend flat's backing array in place
	indptr  []int32       // compact CSR offsets aliased by lo/hi; nil when patched
	rows    []*bitset.Set // adjacency bitsets; nil when n > rowsCutoff
	weights []int64       // per-vertex weights; nil means all weights are 1
	names   []string      // optional debug names; nil means "v<i>"
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n       int
	edges   map[[2]int]struct{}
	weights []int64
	names   []string
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, edges: make(map[[2]int]struct{})}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with an error so construction bugs in gadget builders surface
// immediately rather than silently producing the wrong graph.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if _, dup := b.edges[key]; dup {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	b.edges[key] = struct{}{}
	return nil
}

// MustAddEdge is AddEdge that panics on error; for use in generators and
// tests where the arguments are known valid by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeIfAbsent inserts {u,v} unless it already exists; it still rejects
// out-of-range endpoints and self-loops. It reports whether the edge was
// newly added. Gadget constructions that share vertices use this to merge
// parallel requirements.
func (b *Builder) AddEdgeIfAbsent(u, v int) (added bool, err error) {
	err = b.AddEdge(u, v)
	if err == nil {
		return true, nil
	}
	if u != v && u >= 0 && v >= 0 && u < b.n && v < b.n {
		return false, nil // duplicate: tolerated
	}
	return false, err
}

// SetWeight assigns weight w to vertex v. Weights default to 1.
func (b *Builder) SetWeight(v int, w int64) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: SetWeight index %d out of range", v))
	}
	if b.weights == nil {
		b.weights = make([]int64, b.n)
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
	b.weights[v] = w
}

// SetName assigns a debug name to vertex v (used by gadget constructions so
// test failures identify vertices as e.g. "a1_3" or "DP[e]{2}").
func (b *Builder) SetName(v int, name string) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: SetName index %d out of range", v))
	}
	if b.names == nil {
		b.names = make([]string, b.n)
	}
	b.names[v] = name
}

// Build produces the immutable Graph in CSR form. The Builder may be reused
// afterwards, but further mutations do not affect the built graph.
func (b *Builder) Build() *Graph {
	if 2*int64(len(b.edges)) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges exceed the int32 CSR index space", len(b.edges)))
	}
	deg := make([]int32, b.n+1)
	for e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	indptr := deg // reuse: prefix-summed in place
	for v := 0; v < b.n; v++ {
		indptr[v+1] += indptr[v]
	}
	flat := make([]int, 2*len(b.edges))
	fill := make([]int32, b.n)
	for e := range b.edges {
		u, v := e[0], e[1]
		flat[indptr[u]+fill[u]] = v
		flat[indptr[v]+fill[v]] = u
		fill[u]++
		fill[v]++
	}
	for v := 0; v < b.n; v++ {
		slices.Sort(flat[indptr[v]:indptr[v+1]])
	}
	g := fromCSR(b.n, indptr, flat)
	if b.weights != nil {
		g.weights = slices.Clone(b.weights)
	}
	if b.names != nil {
		g.names = slices.Clone(b.names)
	}
	return g
}

// fromCSR assembles a compact Graph from sorted CSR arrays (each row
// strictly increasing, symmetric, no self-loops) and, below the cutoff,
// derives its bitset rows. The bulk constructors — Build and the power
// expansions — end here.
func fromCSR(n int, indptr []int32, flat []int) *Graph {
	g := &Graph{
		n:      n,
		m:      len(flat) / 2,
		lo:     indptr[:n],
		hi:     indptr[1:],
		flat:   flat,
		slab:   &slab{end: len(flat)},
		indptr: indptr,
	}
	if n <= rowsCutoff {
		g.rows = make([]*bitset.Set, n)
		for v := 0; v < n; v++ {
			g.rows[v] = bitset.FromIndices(n, g.Adj(v)...)
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.hi[v] - g.lo[v]) }

// MaxDegree returns the maximum degree Δ of the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for v := 0; v < g.n; v++ {
		if w := g.hi[v] - g.lo[v]; w > d {
			d = w
		}
	}
	return int(d)
}

// IndPtr returns the canonical CSR row-offset array (length n+1): vertex v's
// neighbors occupy Indices()[IndPtr()[v]:IndPtr()[v+1]]. On a compact graph
// it is a shared read-only view; on a patched churn successor it is rebuilt
// from the row table on every call, in O(n).
func (g *Graph) IndPtr() []int32 {
	if g.indptr != nil {
		return g.indptr
	}
	indptr := make([]int32, g.n+1)
	for v := 0; v < g.n; v++ {
		indptr[v+1] = indptr[v] + g.hi[v] - g.lo[v]
	}
	return indptr
}

// Indices returns the canonical CSR neighbor array (length 2m, rows in
// vertex order, sorted within each row). On a compact graph it is a shared
// read-only view of the slab; on a patched churn successor it is gathered
// from the row table on every call, in O(n + m).
func (g *Graph) Indices() []int {
	if g.indptr != nil {
		return slices.Clip(g.flat)
	}
	out := make([]int, 0, 2*g.m)
	for v := 0; v < g.n; v++ {
		out = append(out, g.Adj(v)...)
	}
	return out
}

// NeighborRange returns the half-open [lo, hi) range of v's row inside
// Indices. It is O(1) on a compact graph and O(n) on a patched one.
func (g *Graph) NeighborRange(v int) (lo, hi int32) {
	indptr := g.IndPtr()
	return indptr[v], indptr[v+1]
}

// Adj returns the sorted neighbor list of v as a shared read-only view into
// the neighbor slab. Callers must not modify the returned slice; use
// Neighbors for a copy.
func (g *Graph) Adj(v int) []int {
	return g.flat[g.lo[v]:g.hi[v]:g.hi[v]]
}

// Neighbors returns a fresh copy of the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int {
	adj := g.Adj(v)
	out := make([]int, len(adj))
	copy(out, adj)
	return out
}

// AdjRow returns the adjacency bitset of v. Below the rows cutoff this is a
// shared read-only view (callers must Clone before mutating); above it a
// fresh set is materialized from the CSR row on every call, so large-graph
// hot paths should iterate Adj instead.
func (g *Graph) AdjRow(v int) *bitset.Set {
	if g.rows != nil {
		return g.rows[v]
	}
	return bitset.FromIndices(g.n, g.Adj(v)...)
}

// HasEdge reports whether {u, v} is an edge: one bitset probe below the rows
// cutoff, binary search over the smaller CSR row above it.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.rows != nil {
		return g.rows[u].Contains(v)
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	row := g.Adj(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// Weighted reports whether the graph carries non-default vertex weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Weight returns the weight of vertex v (1 if the graph is unweighted).
func (g *Graph) Weight(v int) int64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[v]
}

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() int64 {
	var t int64
	for v := 0; v < g.n; v++ {
		t += g.Weight(v)
	}
	return t
}

// SetWeightOf returns a fresh sum of weights over the vertex set s.
func (g *Graph) SetWeightOf(s *bitset.Set) int64 {
	var t int64
	s.ForEach(func(v int) bool {
		t += g.Weight(v)
		return true
	})
	return t
}

// Name returns the debug name of v, defaulting to "v<i>".
func (g *Graph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Edges returns all edges as canonical (u < v) pairs, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Adj(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// ClosedNeighborhood returns N[v] = N(v) ∪ {v} as a fresh bitset.
func (g *Graph) ClosedNeighborhood(v int) *bitset.Set {
	s := bitset.FromIndices(g.n, g.Adj(v)...)
	s.Add(v)
	return s
}
