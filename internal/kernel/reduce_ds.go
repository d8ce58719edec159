package kernel

import (
	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// Dominating set kernelizes naturally as weighted set cover: the universe is
// the vertices still needing domination, and each vertex v contributes the
// candidate set N[v] at weight w(v). The classical safe set-cover reductions
// then apply directly — and, unlike graph-side DS rules, they never need the
// annotated black/white domination model, so the kernel stays a plain
// instance the branch-and-bound solver of internal/exact understands.
//
// Rules (each exhaustively safeness-tested in rules_test.go):
//
//   - zero-weight set: taking it is free and only helps — force it;
//   - unique coverer: an element covered by exactly one candidate forces
//     that candidate;
//   - set domination: a candidate whose set is contained in another's with
//     no smaller weight can be dropped (ties break to the smaller vertex id
//     so exactly one of two identical candidates survives);
//   - element domination: if every candidate covering e also covers f,
//     covering e covers f for free — drop f from the universe.
type dsKernel struct {
	n      int
	weight []int64
	sets   []*bitset.Set // sets[v] = N[v] ∩ elements (nil once dropped)
	cands  *bitset.Set   // vertices still usable as dominators
	elems  *bitset.Set   // vertices still needing domination
	forced *bitset.Set   // vertices committed to the dominating set
	offset int64
}

func newDSKernel(g *graph.Graph) *dsKernel {
	n := g.N()
	k := &dsKernel{
		n:      n,
		weight: make([]int64, n),
		sets:   make([]*bitset.Set, n),
		cands:  bitset.Full(n),
		elems:  bitset.Full(n),
		forced: bitset.New(n),
	}
	for v := 0; v < n; v++ {
		k.weight[v] = g.Weight(v)
		k.sets[v] = g.ClosedNeighborhood(v)
	}
	return k
}

// take commits candidate v to the dominating set: its elements stop needing
// domination and every other candidate's set shrinks accordingly.
func (k *dsKernel) take(v int) {
	k.offset += k.weight[v]
	k.forced.Add(v)
	covered := k.sets[v]
	k.elems.AndNot(covered)
	k.dropCand(v)
	for u := k.cands.First(); u != -1; u = k.cands.NextAfter(u) {
		k.sets[u].AndNot(covered)
	}
}

func (k *dsKernel) dropCand(v int) {
	k.cands.Remove(v)
	k.sets[v] = nil
}

// kernelizeDS runs the set-cover rules to fixpoint.
func kernelizeDS(g *graph.Graph, counts *RuleCounts) *dsKernel {
	k := newDSKernel(g)
	if counts == nil {
		counts = &RuleCounts{}
	}
	for k.sweep(counts) {
	}
	return k
}

// sweep runs each rule once over the instance; reports whether any fired.
func (k *dsKernel) sweep(counts *RuleCounts) bool {
	changed := false

	// Zero-weight and empty candidates.
	for v := k.cands.First(); v != -1; v = k.cands.NextAfter(v) {
		if k.sets[v].Empty() {
			k.dropCand(v)
			changed = true
			continue
		}
		if k.weight[v] == 0 {
			k.take(v)
			counts.ZeroWeight++
			changed = true
		}
	}

	// Unique coverer: count candidates per element.
	for e := k.elems.First(); e != -1; e = k.elems.NextAfter(e) {
		only, cnt := -1, 0
		for v := k.cands.First(); v != -1 && cnt < 2; v = k.cands.NextAfter(v) {
			if k.sets[v].Contains(e) {
				only = v
				cnt++
			}
		}
		if cnt == 1 {
			k.take(only)
			counts.UniqueCoverer++
			changed = true
		}
	}

	// Set domination: drop candidates subset of a no-heavier candidate.
	cands := k.cands.Elements()
	for _, v := range cands {
		if !k.cands.Contains(v) {
			continue
		}
		for _, u := range cands {
			if u == v || !k.cands.Contains(u) || !k.cands.Contains(v) {
				continue
			}
			if k.weight[u] > k.weight[v] || !k.sets[v].SubsetOf(k.sets[u]) {
				continue
			}
			// Ties (equal sets and weights) keep the smaller id.
			if k.sets[v].Equal(k.sets[u]) && k.weight[u] == k.weight[v] && u > v {
				continue
			}
			k.dropCand(v)
			counts.SetDominated++
			changed = true
			break
		}
	}

	// Element domination: drop elements whose coverers all cover another
	// element too (covering that element covers this one for free).
	elems := k.elems.Elements()
	coverers := make(map[int]*bitset.Set, len(elems))
	for _, e := range elems {
		c := bitset.New(k.n)
		for v := k.cands.First(); v != -1; v = k.cands.NextAfter(v) {
			if k.sets[v].Contains(e) {
				c.Add(v)
			}
		}
		coverers[e] = c
	}
	for _, f := range elems {
		if !k.elems.Contains(f) {
			continue
		}
		for _, e := range elems {
			if e == f || !k.elems.Contains(e) {
				continue
			}
			if !coverers[e].SubsetOf(coverers[f]) {
				continue
			}
			// Ties (identical coverer sets) keep the smaller id.
			if coverers[e].Equal(coverers[f]) && e > f {
				continue
			}
			k.elems.Remove(f)
			for v := k.cands.First(); v != -1; v = k.cands.NextAfter(v) {
				k.sets[v].Remove(f)
			}
			counts.ElemDominated++
			changed = true
			break
		}
	}
	return changed
}

// kernelInstance materializes the surviving instance for the exact set-cover
// solver; setIDs maps instance set indices back to vertex ids.
func (k *dsKernel) kernelInstance() (*exact.SetCoverInstance, []int) {
	setIDs := k.cands.Elements()
	elems := k.elems.Elements()
	eIdx := make(map[int]int, len(elems))
	for i, e := range elems {
		eIdx[e] = i
	}
	inst := &exact.SetCoverInstance{
		UniverseSize: len(elems),
		Sets:         make([]*bitset.Set, len(setIDs)),
		Weights:      make([]int64, len(setIDs)),
	}
	for i, v := range setIDs {
		s := bitset.New(len(elems))
		k.sets[v].ForEach(func(e int) bool {
			s.Add(eIdx[e])
			return true
		})
		inst.Sets[i] = s
		inst.Weights[i] = k.weight[v]
	}
	return inst, setIDs
}

// lift maps chosen kernel sets back to vertices and adds the forced ones.
func (k *dsKernel) lift(chosen []int, setIDs []int) *bitset.Set {
	ds := k.forced.Clone()
	for _, i := range chosen {
		ds.Add(setIDs[i])
	}
	return ds
}
