package kernel

import (
	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// vcKernel is the mutable working state of the vertex-cover kernelization:
// sparse adjacency rows (capacity fixed at the input size so original vertex
// ids stay valid throughout, storage proportional to the degree) with their
// live degrees, per-vertex weights that the pendant rule may reduce, the
// set of still-undecided vertices, and the replay log that lifts a kernel
// cover back to a cover of the input graph. The whole state is O(n + m)
// words. The rules edit rows in place and test them without copies; the
// per-rule scratch is the fold's merged row and the twin sweep's key
// buffer.
type vcKernel struct {
	n      int
	adj    []bitset.Sparse
	deg    []int // deg[v] = |adj[v]|, kept in step with every row edit
	weight []int64
	alive  *bitset.Set
	merged bitset.Sparse // degree-2 fold scratch
	key    []byte        // twin-sweep row key scratch
	offset int64         // weight committed by the rules: OPT(input) = OPT(kernel) + offset
	ops    []liftOp
	// lpCut is the min-cut value (twice the LP optimum) of the surviving
	// instance, recorded by the final reduceNT pass — the one that found
	// nothing left to decompose — so the solver's lower bound does not pay
	// for a second max-flow on the identical network.
	lpCut int64
}

// liftOp is one reduction decision. Lift replays the log in reverse order on
// the kernel cover, so every op sees exactly the membership state it needs.
type liftOp struct {
	kind    opKind
	v, a, b int
}

type opKind uint8

const (
	// opForce: v is in every produced cover (lift adds it unconditionally).
	opForce opKind = iota
	// opPendant: pendant v hung off a, with w(a) > w(v); a's weight was
	// reduced by w(v). Lift adds v iff a is not in the cover.
	opPendant
	// opTwin: non-adjacent twin a was merged into representative v
	// (weights summed). Lift adds a iff v is in the cover.
	opTwin
	// opFold: degree-2 vertex v with non-adjacent neighbors a, b was folded
	// into representative v (weight w(a)+w(b)-w(v), adjacency
	// N(a) ∪ N(b) \ {v}). Lift replaces v by {a, b} if v is in the cover,
	// and adds v otherwise.
	opFold
)

// newVCKernel snapshots g into mutable working state.
func newVCKernel(g *graph.Graph) *vcKernel {
	n := g.N()
	k := &vcKernel{
		n:      n,
		adj:    bitset.SparseRows(n, n, g.Adj),
		deg:    make([]int, n),
		weight: make([]int64, n),
		alive:  bitset.Full(n),
		merged: bitset.NewSparse(n, nil),
		// Every op removes at least one vertex, so the log never outgrows n.
		ops: make([]liftOp, 0, n),
	}
	for v := 0; v < n; v++ {
		k.deg[v] = g.Degree(v)
		k.weight[v] = g.Weight(v)
	}
	return k
}

// drop removes v from the instance without any cover decision (degree-0 and
// NT's zero-side vertices, whose edges are all covered by forced vertices).
func (k *vcKernel) drop(v int) {
	k.alive.Remove(v)
	k.adj[v].ForEach(func(u int) bool {
		k.adj[u].Remove(v)
		k.deg[u]--
		return true
	})
	k.adj[v].Clear()
	k.deg[v] = 0
}

// force commits v to the cover at its current weight and removes it.
func (k *vcKernel) force(v int) {
	k.offset += k.weight[v]
	k.ops = append(k.ops, liftOp{kind: opForce, v: v})
	k.drop(v)
}

// liveDegree is |N(v) ∩ alive|; rows only ever contain alive vertices, so
// it is the row's maintained count.
func (k *vcKernel) liveDegree(v int) int { return k.deg[v] }

// kernelizeVC runs every reduction rule to global fixpoint and returns the
// working state, ready for kernel extraction and lifting. counts, when
// non-nil, tallies rule applications.
func kernelizeVC(g *graph.Graph, counts *RuleCounts) *vcKernel {
	k := newVCKernel(g)
	if counts == nil {
		counts = &RuleCounts{}
	}
	for {
		for k.reduceLocal(counts) {
		}
		// Local rules are at fixpoint; if the LP decomposition also finds
		// nothing, that is the global fixpoint (and the pass just recorded
		// the kernel's LP cut for the lower bound). Otherwise NT exposed
		// new local structure — rescan.
		if !k.reduceNT(counts) {
			return k
		}
	}
}

// reduceLocal runs one sweep of the cheap local rules (degree-0,
// zero-weight, pendant, domination, twin merge, degree-2 fold) and reports
// whether anything fired.
func (k *vcKernel) reduceLocal(counts *RuleCounts) bool {
	changed := false
	for v := k.alive.First(); v != -1; v = k.alive.NextAfter(v) {
		if !k.alive.Contains(v) {
			continue // removed earlier in this sweep
		}
		if k.ruleDegreeZero(v, counts) || k.ruleZeroWeight(v, counts) ||
			k.rulePendant(v, counts) || k.ruleDomination(v, counts) ||
			k.ruleFold(v, counts) {
			changed = true
		}
	}
	if k.ruleTwinSweep(counts) {
		changed = true
	}
	return changed
}

// ruleDegreeZero drops isolated vertices: they cover nothing.
func (k *vcKernel) ruleDegreeZero(v int, counts *RuleCounts) bool {
	if k.liveDegree(v) != 0 {
		return false
	}
	k.drop(v)
	counts.Deg0++
	return true
}

// ruleZeroWeight takes zero-weight vertices: they cover their edges for
// free, so some optimal cover contains them.
func (k *vcKernel) ruleZeroWeight(v int, counts *RuleCounts) bool {
	if k.weight[v] != 0 || k.liveDegree(v) == 0 {
		return false
	}
	k.force(v)
	counts.ZeroWeight++
	return true
}

// rulePendant reduces a degree-1 vertex v with neighbor u:
//
//   - w(u) ≤ w(v): N[v] ⊆ N[u] and u is no dearer, so some optimal cover
//     takes u (the domination argument) — force u;
//   - w(u) > w(v): transfer w(v) onto the edge (the exact weighted pendant
//     rule): remove v, reduce w(u) by w(v), and pay w(v) up front. Any
//     cover of the reduced instance lifts by adding v exactly when u is
//     absent; both directions of the cost accounting are exact, so the rule
//     is safe for optimality, not just approximation.
func (k *vcKernel) rulePendant(v int, counts *RuleCounts) bool {
	if k.liveDegree(v) != 1 {
		return false
	}
	u := k.adj[v].First()
	if k.weight[u] <= k.weight[v] {
		k.force(u)
	} else {
		k.offset += k.weight[v]
		k.weight[u] -= k.weight[v]
		k.ops = append(k.ops, liftOp{kind: opPendant, v: v, a: u})
		k.drop(v)
	}
	counts.Pendant++
	return true
}

// ruleDomination applies the weighted dominance rule to v's edges: if some
// neighbor u satisfies N[v] ⊆ N[u] (within the live instance) and
// w(u) ≤ w(v), then swapping v for u in any cover avoiding u stays feasible
// and no dearer, so u can be forced. Squares of graphs are triangle-rich,
// which is where this rule collapses most of the instance.
func (k *vcKernel) ruleDomination(v int, counts *RuleCounts) bool {
	nv := &k.adj[v]
	for u := nv.First(); u != -1; u = nv.NextAfter(u) {
		if k.weight[u] > k.weight[v] || k.deg[v]-1 > k.deg[u] {
			continue // dearer, or too few neighbors to cover N(v) \ {u}
		}
		// N(v) \ {u} ⊆ N(u), tested on v's own row.
		nv.Remove(u)
		dominated := nv.SubsetOf(&k.adj[u])
		nv.Add(u)
		if dominated {
			k.force(u)
			counts.Domination++
			return true
		}
	}
	return false
}

// ruleFold reduces a degree-2 vertex v with neighbors a, b:
//
//   - a–b adjacent (triangle): handled by domination when a weight
//     condition holds; otherwise left for the search.
//   - a–b non-adjacent, w(v) ≥ w(a) + w(b): {a, b} covers everything v
//     covers and more, no dearer — force both.
//   - a–b non-adjacent, max(w(a), w(b)) ≤ w(v) < w(a) + w(b):
//     Nemhauser–Trotter degree-2 folding. Contract {a, v, b} into v with
//     weight w(a)+w(b)−w(v) and adjacency N(a) ∪ N(b) \ {v}, paying w(v)
//     up front. A kernel cover containing the folded v lifts to {a, b};
//     one avoiding it lifts to {v}. Both cost exactly the kernel cost plus
//     w(v). The max-weight condition is essential: when the center is
//     lighter than a neighbor, an optimal cover may contain v plus exactly
//     one of {a, b}, a shape the folded instance cannot express (the
//     randomized safeness corpus catches the unsound variant immediately).
func (k *vcKernel) ruleFold(v int, counts *RuleCounts) bool {
	if k.liveDegree(v) != 2 {
		return false
	}
	a := k.adj[v].First()
	b := k.adj[v].NextAfter(a)
	if k.adj[a].Contains(b) {
		return false
	}
	if k.weight[v] >= k.weight[a]+k.weight[b] {
		k.force(a)
		if k.alive.Contains(b) {
			k.force(b)
		}
		counts.Fold++
		return true
	}
	if k.weight[v] < k.weight[a] || k.weight[v] < k.weight[b] {
		return false
	}
	folded := k.weight[a] + k.weight[b] - k.weight[v]
	k.offset += k.weight[v]
	k.ops = append(k.ops, liftOp{kind: opFold, v: v, a: a, b: b})
	k.merged.CopyFrom(&k.adj[a])
	k.merged.Or(&k.adj[b])
	k.drop(a)
	k.drop(b)
	k.merged.Remove(v)
	k.merged.And(k.alive)
	// v's only neighbors were a and b, so its row is empty now and every
	// merged vertex is a new neighbor: the merged row becomes v's, and v's
	// empty row the next fold's scratch.
	k.adj[v], k.merged = k.merged, k.adj[v]
	k.adj[v].ForEach(func(u int) bool {
		k.adj[u].Add(v)
		k.deg[u]++
		k.deg[v]++
		return true
	})
	k.weight[v] = folded
	counts.Fold++
	return true
}

// ruleTwinSweep merges non-adjacent vertices with identical neighborhoods:
// if N(a) = N(v) and a ∉ N(v), every cover either contains all of N(v)
// (making both redundant) or must contain both a and v, so they act as one
// vertex of weight w(a) + w(v). One sweep buckets live vertices by
// neighborhood and merges each bucket into its smallest id.
func (k *vcKernel) ruleTwinSweep(counts *RuleCounts) bool {
	// rep[key] is the smallest-id vertex seen with that neighborhood; the
	// ascending vertex scan (never map iteration) drives every merge, so
	// the ops log — and with it the lifted cover — is deterministic.
	// Dropping a twin removes the same vertex from every row containing
	// it, so rows that were equal stay equal and the keys remain valid
	// within the sweep; rows that only become equal are caught by the
	// fixpoint loop's next sweep. A key is its row's raw word encoding,
	// equal exactly for equal rows.
	rep := make(map[string]int, k.alive.Count())
	changed := false
	for v := k.alive.First(); v != -1; v = k.alive.NextAfter(v) {
		if k.liveDegree(v) == 0 {
			continue
		}
		k.key = k.adj[v].AppendKey(k.key[:0])
		r, seen := rep[string(k.key)]
		if !seen {
			rep[string(k.key)] = v
			continue
		}
		k.weight[r] += k.weight[v]
		k.ops = append(k.ops, liftOp{kind: opTwin, v: r, a: v})
		k.drop(v)
		counts.Twin++
		changed = true
	}
	return changed
}

// reduceNT runs the Nemhauser–Trotter LP decomposition: solve the VC linear
// relaxation exactly via max-flow on the bipartite double cover, force the
// x = 1 side into the cover, and drop the x = 0 side (whose neighbors are
// all forced). By LP persistency some optimal integral cover agrees with
// every integral coordinate of an optimal half-integral LP solution, so the
// rule is exact; the surviving kernel is the all-½ part.
func (k *vcKernel) reduceNT(counts *RuleCounts) bool {
	if k.alive.Empty() {
		k.lpCut = 0
		return false
	}
	one, zero, cut := ntDecompose(k)
	if one.Empty() && zero.Empty() {
		k.lpCut = cut // the instance will not change again: cut stays valid
		return false
	}
	one.ForEach(func(v int) bool {
		if k.alive.Contains(v) {
			k.force(v)
			counts.NTForced++
		}
		return true
	})
	zero.ForEach(func(v int) bool {
		if k.alive.Contains(v) {
			k.drop(v)
		}
		return true
	})
	return true
}

// kernelGraph materializes the surviving instance as an immutable graph with
// the (possibly reduced) working weights; orig maps kernel ids back to input
// ids.
func (k *vcKernel) kernelGraph() (*graph.Graph, []int) {
	orig := k.alive.Elements()
	idx := make(map[int]int, len(orig))
	for i, v := range orig {
		idx[v] = i
	}
	b := graph.NewBuilder(len(orig))
	for i, v := range orig {
		b.SetWeight(i, k.weight[v])
		k.adj[v].ForEach(func(u int) bool {
			if u > v {
				b.MustAddEdge(i, idx[u])
			}
			return true
		})
	}
	return b.Build(), orig
}

// lift translates a cover of the kernel back into a cover of the input
// graph: map kernel ids to input ids, then replay the reduction log in
// reverse so each decision sees the membership state it recorded against.
func (k *vcKernel) lift(kernelCover *bitset.Set, orig []int) *bitset.Set {
	cover := bitset.New(k.n)
	kernelCover.ForEach(func(i int) bool {
		cover.Add(orig[i])
		return true
	})
	for i := len(k.ops) - 1; i >= 0; i-- {
		op := k.ops[i]
		switch op.kind {
		case opForce:
			cover.Add(op.v)
		case opPendant:
			if !cover.Contains(op.a) {
				cover.Add(op.v)
			}
		case opTwin:
			if cover.Contains(op.v) {
				cover.Add(op.a)
			}
		case opFold:
			if cover.Contains(op.v) {
				cover.Remove(op.v)
				cover.Add(op.a)
				cover.Add(op.b)
			} else {
				cover.Add(op.v)
			}
		}
	}
	return cover
}
