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
	"math"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// ErrBudgetExceeded is returned by the bounded solvers when the search
// explores more branch-and-bound nodes than the caller allowed.
var ErrBudgetExceeded = errors.New("exact: search budget exceeded")

// VertexCover returns a minimum-weight vertex cover of g (minimum
// cardinality when g is unweighted). The search is exhaustive.
func VertexCover(g *graph.Graph) *bitset.Set {
	s, err := VertexCoverBounded(g, 0)
	if err != nil {
		panic("exact: unreachable: unbounded search returned error")
	}
	return s
}

// VertexCoverCounted is VertexCover plus the number of branch-and-bound
// nodes the search expanded — the observability counter behind
// kernel.Report.SearchNodes. The returned cover is bit-identical with
// VertexCover's.
func VertexCoverCounted(g *graph.Graph) (*bitset.Set, int64) {
	s, nodes, err := vertexCoverSearch(g, 0, nil, false)
	if err != nil {
		panic("exact: unreachable: unbounded search returned error")
	}
	return s, nodes
}

// VertexCoverBounded is VertexCover with a branch-and-bound node budget;
// maxNodes == 0 means unlimited. On budget exhaustion it returns
// ErrBudgetExceeded and no solution.
func VertexCoverBounded(g *graph.Graph, maxNodes int64) (*bitset.Set, error) {
	return VertexCoverBoundedFrom(g, maxNodes, nil)
}

// VertexCoverBoundedFrom is VertexCoverBounded seeded with a feasible
// incumbent cover (nil selects the trivial all-non-isolated-vertices
// incumbent). A near-optimal seed — the kernelize-then-solve pipeline passes
// its polynomial 2-approximation — lets the lower bounds prune from the
// first node, which is often the difference between cracking a hard kernel
// and exhausting the budget. The search still returns an exact optimum; the
// seed itself is returned only when nothing strictly better exists.
func VertexCoverBoundedFrom(g *graph.Graph, maxNodes int64, incumbent *bitset.Set) (*bitset.Set, error) {
	s, _, err := vertexCoverSearch(g, maxNodes, incumbent, false)
	return s, err
}

// VertexCoverBoundedSplit is VertexCoverBoundedFrom with in-search connected
// component decomposition: whenever branching (plus reductions) disconnects
// the active subproblem, each component is solved independently and the
// optima are summed. On the band-and-junction structures that survive
// kernelization of sparse power graphs, one junction branch splits the
// instance into many short chains, turning an exponential search into a
// near-linear one. Decomposition changes only tie-breaking among equal-cost
// covers, so it lives behind its own entry point and the legacy
// VertexCover/VertexCoverBounded outputs stay bit-identical.
//
// Unlike the legacy entry points, on budget exhaustion it returns the best
// feasible cover found so far (never worse than the seed incumbent)
// alongside ErrBudgetExceeded, so an interrupted search still pays out the
// improvements it made.
func VertexCoverBoundedSplit(g *graph.Graph, maxNodes int64, incumbent *bitset.Set) (*bitset.Set, error) {
	s, _, err := vertexCoverSearch(g, maxNodes, incumbent, true)
	return s, err
}

// VertexCoverBoundedSplitCounted is VertexCoverBoundedSplit plus the global
// branch-and-bound node count (shared across the splitting search's
// sub-solvers). On budget exhaustion the best-so-far cover is still
// returned alongside the error, exactly like VertexCoverBoundedSplit.
func VertexCoverBoundedSplitCounted(g *graph.Graph, maxNodes int64, incumbent *bitset.Set) (*bitset.Set, int64, error) {
	return vertexCoverSearch(g, maxNodes, incumbent, true)
}

// vertexCoverSearch runs the branch and bound and additionally reports how
// many search nodes it expanded (the budget counter, global across split
// sub-solvers).
func vertexCoverSearch(g *graph.Graph, maxNodes int64, incumbent *bitset.Set, split bool) (*bitset.Set, int64, error) {
	n := g.N()
	s := &vcSolver{
		g:        g,
		n:        n,
		budget:   vcBudget{max: maxNodes},
		split:    split,
		bestCost: math.MaxInt64,
		nv:       bitset.New(n),
		avail:    bitset.New(n),
		common:   bitset.New(n),
	}
	init := incumbent
	if init == nil {
		// Trivial incumbent: all non-isolated vertices (always feasible).
		init = bitset.New(n)
		for v := 0; v < n; v++ {
			if g.Degree(v) > 0 {
				init.Add(v)
			}
		}
	}
	s.bestSet = init
	s.bestCost = g.SetWeightOf(init)

	root := &vcFrame{active: bitset.Full(n), cover: bitset.New(n)}
	s.frames = append(s.frames, root)
	if err := s.solve(root.active, root.cover, 0, 0); err != nil {
		if split {
			// Best-so-far: feasible, and no worse than the seed incumbent.
			return s.bestSet, s.budget.nodes, err
		}
		return nil, s.budget.nodes, err
	}
	return s.bestSet, s.budget.nodes, nil
}

// vcBudget is the search-node budget, shared across the sub-searches the
// splitting search runs so the cap stays global.
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

// vcSolver is one search call: the incumbent, the budget, and the scratch
// the search reuses instead of allocating per node. The search allocates
// once per call (frames grow lazily with the depth reached) and once per
// improved incumbent, never per search node.
type vcSolver struct {
	g        *graph.Graph
	n        int
	bestSet  *bitset.Set
	bestCost int64
	budget   vcBudget
	split    bool

	// frames[d] holds the sets of the subproblem at recursion depth d; a
	// branch writes its child into frames[d+1], which the next branch of
	// the same node then overwrites.
	frames []*vcFrame
	// nv, avail and common are flat scratch for the steps that never
	// recurse while holding them: the reduction sweep, the lower bounds,
	// branch B and the component walk. seen and frontier serve components.
	nv, avail, common *bitset.Set
	seen              *bitset.Set
	frontier          []int
}

// vcFrame is the per-depth working state: the subproblem's active set and
// committed cover, plus (allocated on first split at this depth) the union
// of the components' optima and the reusable component sets.
type vcFrame struct {
	active, cover *bitset.Set
	union         *bitset.Set
	comps         []*bitset.Set
}

// frame returns frames[d], allocating any missing frames up to d.
func (s *vcSolver) frame(d int) *vcFrame {
	for len(s.frames) <= d {
		s.frames = append(s.frames, &vcFrame{active: bitset.New(s.n), cover: bitset.New(s.n)})
	}
	return s.frames[d]
}

// activeDegree is |N(v) ∩ active|.
func (s *vcSolver) activeDegree(v int, active *bitset.Set) int {
	return s.g.AdjRow(v).IntersectionCount(active)
}

// matchingLB greedily matches active edges; each matched edge forces at
// least min(w(u), w(v)) additional cover weight, and the edges are disjoint,
// so the sum is a valid lower bound on the cost of covering what remains.
func (s *vcSolver) matchingLB(active *bitset.Set) int64 {
	avail := s.avail
	avail.CopyFrom(active)
	var lb int64
	for u := avail.First(); u != -1; u = avail.NextAfter(u) {
		v := s.g.AdjRow(u).FirstCommon(avail)
		if v == -1 {
			continue
		}
		wu, wv := s.g.Weight(u), s.g.Weight(v)
		if wu < wv {
			lb += wu
		} else {
			lb += wv
		}
		avail.Remove(u)
		avail.Remove(v)
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
//
// Both bounds are admissible, so taking their maximum never prunes a
// strictly-improving leaf: the returned cover is bit-identical with or
// without this bound — only the visited node count changes. It still runs
// only on the splitting search (the kernelize-then-solve path), so the
// legacy entry points keep their pre-kernel node counts exactly: the
// leader-ceiling stress test relies on VertexCoverBounded exhausting the
// same budgets it always exhausted.
func (s *vcSolver) cliqueCoverLB(active *bitset.Set) int64 {
	avail, common := s.avail, s.common
	avail.CopyFrom(active)
	var lb int64
	for u := avail.First(); u != -1; u = avail.NextAfter(u) {
		// Grow a clique around u: candidates stay adjacent to every member.
		common.CopyFrom(s.g.AdjRow(u))
		common.And(avail)
		sum, max := s.g.Weight(u), s.g.Weight(u)
		avail.Remove(u)
		for v := common.First(); v != -1; v = common.NextAfter(v) {
			w := s.g.Weight(v)
			sum += w
			if w > max {
				max = w
			}
			avail.Remove(v)
			common.And(s.g.AdjRow(v))
		}
		lb += sum - max
	}
	return lb
}

// lowerBound is the matching bound, strengthened by the clique-cover bound
// on the splitting search.
func (s *vcSolver) lowerBound(active *bitset.Set) int64 {
	lb := s.matchingLB(active)
	if !s.split {
		return lb
	}
	if c := s.cliqueCoverLB(active); c > lb {
		lb = c
	}
	return lb
}

// improve records cover (cost cost) as the new incumbent. cover is search
// scratch, so the incumbent keeps a copy.
func (s *vcSolver) improve(cover *bitset.Set, cost int64) {
	s.bestCost = cost
	s.bestSet = cover.Clone()
}

// solve explores the subproblem where `active` vertices remain and `cover`
// (cost `cost`) has been committed, at recursion depth `depth`. It mutates
// its arguments; each branch starts from a copy written into the frame of
// depth+1.
func (s *vcSolver) solve(active, cover *bitset.Set, cost int64, depth int) error {
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
	nv := s.nv
	for {
		changed := false
		for v := active.First(); v != -1; v = active.NextAfter(v) {
			if !active.Contains(v) {
				continue // removed earlier in this sweep
			}
			nv.CopyFrom(s.g.AdjRow(v))
			nv.And(active)
			if nv.Empty() {
				active.Remove(v)
				changed = true
				continue
			}
			// Zero-weight vertices cover their edges for free.
			if s.g.Weight(v) == 0 {
				cover.Add(v)
				active.Remove(v)
				changed = true
				continue
			}
			for u := nv.First(); u != -1; u = nv.NextAfter(u) {
				if s.g.Weight(u) > s.g.Weight(v) {
					continue
				}
				// nv \ {u} ⊆ N(u) ∩ active; nv ⊆ active already.
				nv.Remove(u)
				dominated := nv.SubsetOf(s.g.AdjRow(u))
				nv.Add(u)
				if dominated {
					cover.Add(u)
					cost += s.g.Weight(u)
					active.Remove(u)
					changed = true
					if cost >= s.bestCost {
						return nil
					}
					break // v's neighborhood changed; rescan
				}
			}
		}
		if !changed {
			break
		}
	}

	// Find the highest-active-degree vertex; if no active edges remain the
	// committed cover is feasible for the whole graph.
	branch, branchDeg := -1, 0
	for v := active.First(); v != -1; v = active.NextAfter(v) {
		if d := s.activeDegree(v, active); d > branchDeg {
			branch, branchDeg = v, d
		}
	}
	if branch == -1 {
		if cost < s.bestCost {
			s.improve(cover, cost)
		}
		return nil
	}

	if cost+s.lowerBound(active) >= s.bestCost {
		return nil
	}

	if s.split {
		if done, err := s.solveSplit(active, cover, cost, depth); done || err != nil {
			return err
		}
	}

	child := s.frame(depth + 1)
	// Branch A: take `branch` into the cover.
	child.active.CopyFrom(active)
	child.cover.CopyFrom(cover)
	child.active.Remove(branch)
	child.cover.Add(branch)
	if err := s.solve(child.active, child.cover, cost+s.g.Weight(branch), depth+1); err != nil {
		return err
	}
	// Branch B: exclude `branch` ⇒ all of its active neighbors enter.
	nbrs := s.common
	nbrs.CopyFrom(s.g.AdjRow(branch))
	nbrs.And(active)
	extra := int64(0)
	for u := nbrs.First(); u != -1; u = nbrs.NextAfter(u) {
		extra += s.g.Weight(u)
	}
	child.active.CopyFrom(active)
	child.active.AndNot(nbrs)
	child.active.Remove(branch)
	child.cover.CopyFrom(cover)
	child.cover.Or(nbrs)
	return s.solve(child.active, child.cover, cost+extra, depth+1)
}

// solveSplit decomposes a disconnected active set into components, solves
// each with an independent sub-search (shared node budget and scratch,
// starting at depth+1), and combines the optima. Reports done = true when it
// handled the subproblem (i.e., there was more than one component); the
// caller then skips branching entirely.
func (s *vcSolver) solveSplit(active, cover *bitset.Set, cost int64, depth int) (done bool, err error) {
	f := s.frame(depth)
	comps := s.components(active, f)
	if len(comps) < 2 {
		return false, nil
	}
	if f.union == nil {
		f.union = bitset.New(s.n)
	}
	union := f.union
	union.CopyFrom(cover)
	total := cost
	child := s.frame(depth + 1)
	outerSet, outerCost := s.bestSet, s.bestCost
	for _, comp := range comps {
		if total >= outerCost {
			return true, nil // partial sums already beat by the incumbent
		}
		// The sub-search runs against its own incumbent, seeded with the
		// trivial per-component cover: the whole component.
		s.bestSet, s.bestCost = comp, s.g.SetWeightOf(comp)
		child.active.CopyFrom(comp)
		child.cover.Clear()
		err := s.solve(child.active, child.cover, 0, depth+1)
		subSet, subCost := s.bestSet, s.bestCost
		s.bestSet, s.bestCost = outerSet, outerCost
		if err != nil {
			return true, err
		}
		total += subCost
		union.Or(subSet)
	}
	if total < s.bestCost {
		s.improve(union, total)
	}
	return true, nil
}

// components returns the connected components of the active set, in
// first-vertex order (deterministic). The sets are f's reusable component
// list, valid until the next call at the same depth.
func (s *vcSolver) components(active *bitset.Set, f *vcFrame) []*bitset.Set {
	if s.seen == nil {
		s.seen = bitset.New(s.n)
	}
	seen, nbrs := s.seen, s.common
	seen.Clear()
	count := 0
	for v := active.First(); v != -1; v = active.NextAfter(v) {
		if seen.Contains(v) {
			continue
		}
		if count == len(f.comps) {
			f.comps = append(f.comps, bitset.New(s.n))
		}
		comp := f.comps[count]
		count++
		comp.Clear()
		frontier := append(s.frontier[:0], v)
		comp.Add(v)
		seen.Add(v)
		for len(frontier) > 0 {
			u := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			nbrs.CopyFrom(s.g.AdjRow(u))
			nbrs.And(active)
			for w := nbrs.First(); w != -1; w = nbrs.NextAfter(w) {
				if !seen.Contains(w) {
					seen.Add(w)
					comp.Add(w)
					frontier = append(frontier, w)
				}
			}
		}
		s.frontier = frontier
	}
	return f.comps[:count]
}
