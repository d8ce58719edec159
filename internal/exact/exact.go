// Package exact provides exact (optimal) solvers for minimum (weighted)
// vertex cover and minimum (weighted) dominating set, via branch and bound
// over bitsets, plus brute-force reference solvers used to validate them.
//
// The paper's algorithms repeatedly assume an exact oracle: Algorithm 1's
// Phase II has a leader "compute an optimal solution R* of the VC problem on
// H = G²[U]" with unbounded local computation, and every lower-bound lemma
// (Lemmas 21, 24, 34, 40, 43) is a statement about exact optima of gadget
// graphs. These solvers are that oracle. They are tuned for the graph sizes
// that appear in those roles (≈ up to a few hundred vertices for VC with
// small covers, and structured gadget graphs for DS), not for arbitrary
// dense instances.
package exact

import (
	"errors"
	"math/bits"
	"slices"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// ErrBudgetExceeded is returned by the bounded solvers when the search
// explores more branch-and-bound nodes than the caller allowed.
var ErrBudgetExceeded = errors.New("exact: search budget exceeded")

// VertexCover returns a minimum-weight vertex cover of g (minimum
// cardinality when g is unweighted). The search is exhaustive.
func VertexCover(g *graph.Graph) *bitset.Set {
	s, _, err := VertexCoverBounded(g, 0, nil)
	if err != nil {
		panic("exact: unreachable: unbounded search returned error")
	}
	return s
}

// VertexCoverBounded is VertexCover with a branch-and-bound node budget
// (maxNodes == 0 means unlimited) and a feasible seed cover (nil selects
// the trivial all-non-isolated-vertices incumbent). It also returns the
// number of search nodes expanded — the observability counter behind
// kernel.Report.SearchNodes.
//
// A near-optimal seed — the kernelize-then-solve pipeline passes its
// polynomial 2-approximation — lets the lower bounds prune from the first
// node, which is often the difference between cracking a hard kernel and
// exhausting the budget. The search still returns an exact optimum; the
// seed itself is returned only when nothing strictly better exists. On
// budget exhaustion it returns the best feasible cover found so far (never
// worse than the seed) alongside ErrBudgetExceeded, so an interrupted
// search still pays out the improvements it made. The seed is never
// written to.
//
// Whenever branching (plus reductions) disconnects the active subproblem,
// each component is solved independently and the optima are summed. On the
// band-and-junction structures that survive kernelization of sparse power
// graphs, one junction branch splits the instance into many short chains,
// turning an exponential search into a near-linear one.
func VertexCoverBounded(g *graph.Graph, maxNodes int64, incumbent *bitset.Set) (*bitset.Set, int64, error) {
	n := g.N()
	nw := (n + 63) / 64
	s := &vcSolver{
		g:      g,
		nw:     nw,
		budget: vcBudget{max: maxNodes},
		rows:   make([][]uint64, n),
		nv:     make([]uint64, nw),
		avail:  make([]uint64, nw),
		common: make([]uint64, nw),
		seen:   make([]uint64, nw),
		cand:   make([]uint64, nw),
	}
	for v := range s.rows {
		s.rows[v] = g.AdjRow(v).Words()
	}
	if incumbent != nil {
		s.best = incumbent.Words()
	} else {
		// Trivial incumbent: all non-isolated vertices (always feasible).
		s.best = make([]uint64, nw)
		for v := 0; v < n; v++ {
			if g.Degree(v) > 0 {
				addBit(s.best, v)
			}
		}
	}
	s.bestCost = s.weightOf(s.best)

	root := s.frame(0)
	for v := 0; v < n; v++ {
		addBit(root.active, v)
	}
	copy(root.dirty, root.active)
	err := s.solve(root.active, root.cover, root.dirty, 0, 0)
	best := bitset.New(n)
	forEachBit(s.best, best.Add)
	return best, s.budget.nodes, err
}

// vcBudget is the search-node budget, shared across the per-component
// sub-searches so the cap stays global.
type vcBudget struct {
	nodes int64
	max   int64
}

func (b *vcBudget) spend() error {
	b.nodes++
	if b.max > 0 && b.nodes > b.max {
		return ErrBudgetExceeded
	}
	return nil
}

// vcSolver is one search call: the incumbent, the budget, the adjacency
// rows and the scratch the search reuses instead of allocating per node.
// Every set is ⌈n/64⌉ raw words (vertex v is bit v%64 of word v/64), so a
// set operation is one loop over a few words and a walk over a set's
// members is a trailing-zeros loop per word. The search allocates once per
// call (frames grow lazily with the depth reached) and once per improved
// incumbent, never per search node.
type vcSolver struct {
	g  *graph.Graph
	nw int // words per set
	// rows[v] is the word view of v's adjacency row, read once per call;
	// no words are copied.
	rows     [][]uint64
	best     []uint64 // the incumbent; read-only (improve replaces it)
	bestCost int64
	budget   vcBudget

	// frames[d] holds the sets of the subproblem at recursion depth d; a
	// branch writes its child into frames[d+1], which the next branch of
	// the same node then overwrites.
	frames []*vcFrame
	// nv, avail and common are flat scratch for the steps that never
	// recurse while holding them: the reduction sweep, the lower bounds,
	// branch B and the component walk. cand serves dominator, seen and
	// frontier serve components.
	nv, avail, common, seen, cand []uint64
	frontier                      []int
}

// vcFrame is the per-depth working state: the subproblem's active set,
// committed cover and dirty set (see solve), plus (allocated on first split
// at this depth) the union of the components' optima and the reusable
// component sets.
type vcFrame struct {
	active, cover, dirty []uint64
	union                []uint64
	comps                [][]uint64
}

// frame returns frames[d], allocating any missing frames up to d.
func (s *vcSolver) frame(d int) *vcFrame {
	for len(s.frames) <= d {
		s.frames = append(s.frames, &vcFrame{
			active: make([]uint64, s.nw),
			cover:  make([]uint64, s.nw),
			dirty:  make([]uint64, s.nw),
		})
	}
	return s.frames[d]
}

// weightOf is the total weight of the vertices in set.
func (s *vcSolver) weightOf(set []uint64) int64 {
	var t int64
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			t += s.g.Weight(i<<6 + bits.TrailingZeros64(w))
		}
	}
	return t
}

// matchingLB greedily matches active edges; each matched edge forces at
// least min(w(u), w(v)) additional cover weight, and the edges are disjoint,
// so the sum is a valid lower bound on the cost of covering what remains.
func (s *vcSolver) matchingLB(active []uint64) int64 {
	avail := s.avail
	copy(avail, active)
	var lb int64
	for i := range avail {
		// Re-masking with avail[i] skips the partners matched meanwhile.
		for w := avail[i]; w != 0; w = avail[i] & (w & (w - 1)) {
			u := i<<6 + bits.TrailingZeros64(w)
			v := firstCommon(s.rows[u], avail)
			if v == -1 {
				continue
			}
			lb += min(s.g.Weight(u), s.g.Weight(v))
			removeBit(avail, u)
			removeBit(avail, v)
		}
	}
	return lb
}

// cliqueCoverLB greedily partitions the active vertices into cliques; a
// clique must put all members but one into any cover, so each contributes
// its total weight minus its heaviest member, and disjointness makes the sum
// admissible. On triangle-rich instances — power graphs above all, where
// every 1-hop neighborhood is a clique of Gʳ — this is nearly twice the
// matching bound (k−1 versus ⌊k/2⌋ per clique of size k), which is what lets
// the branch and bound crack the kernels of thousand-node leader instances.
func (s *vcSolver) cliqueCoverLB(active []uint64) int64 {
	avail, common := s.avail, s.common
	copy(avail, active)
	var lb int64
	for i := range avail {
		for w := avail[i]; w != 0; w = avail[i] & (w & (w - 1)) {
			// Grow a clique around u: candidates stay adjacent to every
			// member, so common only shrinks while it is walked.
			u := i<<6 + bits.TrailingZeros64(w)
			andInto(common, s.rows[u], avail)
			sum, heaviest := s.g.Weight(u), s.g.Weight(u)
			removeBit(avail, u)
			for j := range common {
				for c := common[j]; c != 0; c = common[j] & (c & (c - 1)) {
					v := j<<6 + bits.TrailingZeros64(c)
					wv := s.g.Weight(v)
					sum += wv
					heaviest = max(heaviest, wv)
					removeBit(avail, v)
					andWith(common, s.rows[v])
				}
			}
			lb += sum - heaviest
		}
	}
	return lb
}

// pruned reports whether the larger of the clique-cover and the matching
// bound lifts cost to the incumbent's. Both are admissible, so their
// maximum never prunes a strictly-improving leaf; the matching bound runs
// only when the clique cover alone does not prune.
func (s *vcSolver) pruned(active []uint64, cost int64) bool {
	return cost+s.cliqueCoverLB(active) >= s.bestCost || cost+s.matchingLB(active) >= s.bestCost
}

// improve records cover (cost cost) as the new incumbent. cover is search
// scratch, so the incumbent keeps a copy.
func (s *vcSolver) improve(cover []uint64, cost int64) {
	s.bestCost = cost
	s.best = slices.Clone(cover)
}

// dominator returns the first neighbor u in nv = N(v) ∩ active with
// w(u) ≤ wv and nv ⊆ N[u] — the dominance rule's witness — or -1. By
// symmetry nv ⊆ N[u] exactly when u lies in N[x] for every x in nv, so the
// candidates are nv ∩ ⋂ N[x], intersected a row at a time; most vertices
// have no candidate left after a few rows.
func (s *vcSolver) dominator(nv []uint64, wv int64) int {
	cand := s.cand
	copy(cand, nv)
	for i, w := range nv {
		for ; w != 0; w &= w - 1 {
			x := i<<6 + bits.TrailingZeros64(w)
			self := cand[i] & (1 << (x & 63)) // x ∈ N[x]
			if !andInto(cand, cand, s.rows[x]) && self == 0 {
				return -1
			}
			cand[i] |= self
		}
	}
	for i, w := range cand {
		for ; w != 0; w &= w - 1 {
			if u := i<<6 + bits.TrailingZeros64(w); s.g.Weight(u) <= wv {
				return u
			}
		}
	}
	return -1
}

// solve explores the subproblem where `active` vertices remain and `cover`
// (cost `cost`) has been committed, at recursion depth `depth`. `dirty`
// holds (at least) the active vertices whose active neighborhood changed
// since the reductions last found no rule for them. It mutates its
// arguments; each branch starts from a copy written into the frame of
// depth+1.
func (s *vcSolver) solve(active, cover, dirty []uint64, cost int64, depth int) error {
	if err := s.budget.spend(); err != nil {
		return err
	}
	if cost >= s.bestCost {
		return nil
	}

	// Reductions (repeat to fixpoint): drop isolated vertices; apply the
	// dominance rule — for an edge {u,v} with N[v] ∩ active ⊆ N[u] ∩ active
	// and w(u) ≤ w(v), some optimal cover of the subproblem contains u
	// (swap v for u in any cover avoiding u: v's other neighbors are all
	// u's neighbors, hence already in the cover). Degree-1 is the special
	// case where v's closed active neighborhood is exactly {u, v}. Squares
	// of graphs are triangle-rich, where this rule collapses most of the
	// instance without branching.
	//
	// Each sweep visits the active vertices in increasing order. Whether a
	// rule applies to v depends only on N(v) ∩ active, so a vertex that is
	// not dirty would find no rule again and the sweep skips it: a visit
	// clears v's dirty bit, and removing a vertex marks its neighbors. The
	// rules fire exactly as in a sweep over every active vertex.
	nv := s.nv
	for {
		changed := false
		for i := range active {
			for w := active[i] & dirty[i]; w != 0; {
				b := bits.TrailingZeros64(w)
				v := i<<6 + b
				dirty[i] &^= 1 << b
				if !andInto(nv, s.rows[v], active) {
					removeBit(active, v)
					changed = true
				} else if wv := s.g.Weight(v); wv == 0 {
					// Zero-weight vertices cover their edges for free.
					addBit(cover, v)
					removeBit(active, v)
					orWith(dirty, nv)
					changed = true
				} else if u := s.dominator(nv, wv); u != -1 {
					addBit(cover, u)
					cost += s.g.Weight(u)
					removeBit(active, u)
					orWith(dirty, s.rows[u])
					changed = true
					if cost >= s.bestCost {
						return nil
					}
				}
				// Continue past v, re-reading the word: a rule may have
				// removed vertices ahead of v or dirtied them.
				w = active[i] & dirty[i] &^ (2<<b - 1)
			}
		}
		if !changed {
			break
		}
	}

	// Find the highest-active-degree vertex; if no active edges remain the
	// committed cover is feasible for the whole graph.
	branch, branchDeg := -1, 0
	for i, w := range active {
		for ; w != 0; w &= w - 1 {
			v := i<<6 + bits.TrailingZeros64(w)
			if d := intersectionCount(s.rows[v], active); d > branchDeg {
				branch, branchDeg = v, d
			}
		}
	}
	if branch == -1 {
		if cost < s.bestCost {
			s.improve(cover, cost)
		}
		return nil
	}

	if s.pruned(active, cost) {
		return nil
	}

	if done, err := s.solveSplit(active, cover, cost, depth); done || err != nil {
		return err
	}

	// Every active vertex is clean here: the reductions reached their
	// fixpoint. A branch dirties the neighbors of the vertices it removes.
	child := s.frame(depth + 1)
	// Branch A: take `branch` into the cover.
	copy(child.active, active)
	copy(child.cover, cover)
	copy(child.dirty, s.rows[branch])
	removeBit(child.active, branch)
	addBit(child.cover, branch)
	if err := s.solve(child.active, child.cover, child.dirty, cost+s.g.Weight(branch), depth+1); err != nil {
		return err
	}
	// Branch B: exclude `branch` ⇒ all of its active neighbors enter.
	nbrs := s.common
	andInto(nbrs, s.rows[branch], active)
	extra := s.weightOf(nbrs)
	for i, w := range nbrs {
		child.active[i] = active[i] &^ w
		child.cover[i] = cover[i] | w
	}
	removeBit(child.active, branch)
	clear(child.dirty)
	for i, w := range nbrs {
		for ; w != 0; w &= w - 1 {
			orWith(child.dirty, s.rows[i<<6+bits.TrailingZeros64(w)])
		}
	}
	return s.solve(child.active, child.cover, child.dirty, cost+extra, depth+1)
}

// solveSplit decomposes a disconnected active set into components, solves
// each with an independent sub-search (shared node budget and scratch,
// starting at depth+1), and combines the optima. Reports done = true when it
// handled the subproblem (i.e., there was more than one component); the
// caller then skips branching entirely.
func (s *vcSolver) solveSplit(active, cover []uint64, cost int64, depth int) (done bool, err error) {
	f := s.frame(depth)
	comps := s.components(active, f)
	if len(comps) < 2 {
		return false, nil
	}
	if f.union == nil {
		f.union = make([]uint64, s.nw)
	}
	union := f.union
	copy(union, cover)
	total := cost
	child := s.frame(depth + 1)
	outerSet, outerCost := s.best, s.bestCost
	for _, comp := range comps {
		if total >= outerCost {
			return true, nil // partial sums already beat by the incumbent
		}
		// The sub-search runs against its own incumbent, seeded with the
		// trivial per-component cover: the whole component.
		// A component keeps every member's active neighborhood, so none
		// is dirty.
		s.best, s.bestCost = comp, s.weightOf(comp)
		copy(child.active, comp)
		clear(child.cover)
		clear(child.dirty)
		err := s.solve(child.active, child.cover, child.dirty, 0, depth+1)
		subSet, subCost := s.best, s.bestCost
		s.best, s.bestCost = outerSet, outerCost
		if err != nil {
			return true, err
		}
		total += subCost
		orWith(union, subSet)
	}
	if total < s.bestCost {
		s.improve(union, total)
	}
	return true, nil
}

// components returns the connected components of the active set, in
// first-vertex order (deterministic). The sets are f's reusable component
// list, valid until the next call at the same depth. The flood takes all of
// a vertex's unseen active neighbors a word at a time, so each member costs
// one pass over its row's words however many neighbors it has.
func (s *vcSolver) components(active []uint64, f *vcFrame) [][]uint64 {
	seen := s.seen
	clear(seen)
	count := 0
	for i := range active {
		for w := active[i] &^ seen[i]; w != 0; w = active[i] &^ seen[i] {
			v := i<<6 + bits.TrailingZeros64(w)
			if count == len(f.comps) {
				f.comps = append(f.comps, make([]uint64, s.nw))
			}
			comp := f.comps[count]
			count++
			clear(comp)
			addBit(comp, v)
			addBit(seen, v)
			frontier := append(s.frontier[:0], v)
			for len(frontier) > 0 {
				u := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				row := s.rows[u][:len(active)]
				for j, a := range active {
					fresh := row[j] & a &^ seen[j]
					if fresh == 0 {
						continue
					}
					seen[j] |= fresh
					comp[j] |= fresh
					for ; fresh != 0; fresh &= fresh - 1 {
						frontier = append(frontier, j<<6+bits.TrailingZeros64(fresh))
					}
				}
			}
			s.frontier = frontier
		}
	}
	return f.comps[:count]
}

// The word-set helpers below take sets of equal length.

func addBit(set []uint64, v int)    { set[v>>6] |= 1 << (v & 63) }
func removeBit(set []uint64, v int) { set[v>>6] &^= 1 << (v & 63) }

// forEachBit calls fn on each member of set in increasing order.
func forEachBit(set []uint64, fn func(v int)) {
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			fn(i<<6 + bits.TrailingZeros64(w))
		}
	}
}

// andInto sets dst = a ∩ b and reports whether it is nonempty.
func andInto(dst, a, b []uint64) bool {
	a, b = a[:len(dst)], b[:len(dst)]
	var union uint64
	for i := range dst {
		dst[i] = a[i] & b[i]
		union |= dst[i]
	}
	return union != 0
}

// andWith sets dst = dst ∩ a.
func andWith(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &= a[i]
	}
}

// orWith sets dst = dst ∪ a.
func orWith(dst, a []uint64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] |= a[i]
	}
}

// intersectionCount is |a ∩ b|.
func intersectionCount(a, b []uint64) int {
	b = b[:len(a)]
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// firstCommon is the smallest member of a ∩ b, or -1 if they are disjoint.
func firstCommon(a, b []uint64) int {
	b = b[:len(a)]
	for i, w := range a {
		if c := w & b[i]; c != 0 {
			return i<<6 + bits.TrailingZeros64(c)
		}
	}
	return -1
}
