package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"powergraph/internal/bitset"
)

// slab records how much of a neighbor buffer's backing array is claimed by
// the versions sharing it. Every version sees a prefix flat[:len(flat)] of
// the array. A successor may write past its parent's prefix in place only
// while that prefix is the whole claimed part — the parent is the slab's
// newest version. Any other successor, such as a second child forked from
// the same parent, copies into a fresh slab, so siblings never write over
// each other's rows and no version's rows ever change.
type slab struct {
	mu  sync.Mutex
	end int // length of the claimed prefix; -1 while a successor writes
}

// take hands the array past flat to the caller, reporting whether flat ends
// where the claimed prefix ends. The caller must then release it.
func (s *slab) take(flat []int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end != len(flat) {
		return false
	}
	s.end = -1
	return true
}

// release ends a take, making end the claimed prefix length.
func (s *slab) release(end int) {
	s.mu.Lock()
	s.end = end
	s.mu.Unlock()
}

// withRows returns a successor of g whose rows vs (ascending, distinct) are
// replaced by the sorted rows that row appends to dst. Every other row, and
// the weights and names, are shared with g.
//
// The successor copies the O(n) row table and, below the rows cutoff, the
// bitset row pointers, building bitsets only for the replaced rows. When g
// is its slab's newest version, the new rows are written straight after g's
// prefix in g's array and the successor extends the slab in place. It
// compacts instead — copying every row in vertex order into a fresh slab,
// which makes it a compact graph again — when g is not the newest version,
// when the array runs out of room, or when the successor's dead entries
// (rows superseded by later ones) would outnumber its live ones. A fresh
// slab gets room for as many dead entries as live ones, so a compaction is
// paid for by the appends that fill that room.
func (g *Graph) withRows(vs []int, row func(dst []int, v int) []int) *Graph {
	live := 2 * g.m
	hint := 0
	for _, v := range vs {
		hint += g.Degree(v)
	}
	// Writing in place needs room for the rows; sizes change little between
	// versions, so the old rows plus an eighth is the estimate.
	var dst []int
	owned := len(g.flat)+hint+hint/8 <= cap(g.flat) && g.slab.take(g.flat)
	if owned {
		dst = g.flat
	} else {
		dst = make([]int, 0, hint+hint/8)
	}
	base := len(dst)
	off := make([]int, len(vs)+1)
	for i, v := range vs {
		dst = row(dst, v)
		off[i+1] = len(dst) - base
	}
	rows := dst[base:]
	live += len(rows) - hint

	succ := &Graph{n: g.n, m: live / 2, weights: g.weights, names: g.names}
	if g.rows != nil {
		succ.rows = slices.Clone(g.rows)
		for i, v := range vs {
			succ.rows[v] = bitset.FromIndices(g.n, rows[off[i]:off[i+1]]...)
		}
	}
	// dst still shares g's array exactly when it did not outgrow it.
	if owned && len(dst) <= cap(g.flat) && len(dst)-live <= live {
		table := make([]int32, 2*g.n)
		succ.lo, succ.hi = table[:g.n], table[g.n:]
		copy(succ.lo, g.lo)
		copy(succ.hi, g.hi)
		for i, v := range vs {
			succ.lo[v], succ.hi[v] = int32(base+off[i]), int32(base+off[i+1])
		}
		succ.flat, succ.slab = dst, g.slab
		g.slab.release(len(dst))
		return succ
	}
	if owned {
		g.slab.release(len(g.flat))
	}

	if live > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d row entries exceed the int32 row-table index space", live))
	}
	flat := make([]int, 0, min(2*live, math.MaxInt32))
	indptr := make([]int32, g.n+1)
	i := 0
	for v := 0; v < g.n; v++ {
		if i < len(vs) && vs[i] == v {
			flat = append(flat, rows[off[i]:off[i+1]]...)
			i++
		} else {
			flat = append(flat, g.Adj(v)...)
		}
		indptr[v+1] = int32(len(flat))
	}
	succ.indptr, succ.lo, succ.hi = indptr, indptr[:g.n], indptr[1:]
	succ.flat, succ.slab = flat, &slab{end: len(flat)}
	return succ
}
