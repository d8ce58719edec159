package exact

import (
	"math"
	"sort"

	"powergraph/internal/bitset"
)

// SetCoverInstance is a weighted set-cover problem: choose candidate sets
// covering all of {0,…,UniverseSize-1} at minimum total weight. The
// lower-bound verifications use it for "dominate these vertices using only
// those candidates" subproblems that arise from gadget normal forms
// (Lemmas 32/33), where plain graph domination does not apply.
type SetCoverInstance struct {
	UniverseSize int
	Sets         []*bitset.Set // Sets[i] ⊆ universe
	Weights      []int64       // nil means unit weights
}

func (in *SetCoverInstance) weight(i int) int64 {
	if in.Weights == nil {
		return 1
	}
	return in.Weights[i]
}

// SetCover returns the indices of a minimum-weight cover in increasing
// order, or nil if the instance is infeasible (some element is in no set);
// an empty universe yields an empty, non-nil cover. Every zero-weight set
// is in the cover. The search is exhaustive branch and bound.
func SetCover(in *SetCoverInstance) []int {
	chosen, _, err := SetCoverBounded(in, 0)
	if err != nil {
		panic("exact: unreachable: unbounded set cover returned error")
	}
	return chosen
}

// SetCoverBounded is SetCover with a branch-and-bound node budget
// (maxNodes == 0 means unlimited) that also returns the number of search
// nodes expanded — the observability counter behind
// kernel.Report.SearchNodes on the dominating-set path. On budget
// exhaustion it returns ErrBudgetExceeded and no cover.
func SetCoverBounded(in *SetCoverInstance, maxNodes int64) ([]int, int64, error) {
	s := &scSolver{in: in, maxNodes: maxNodes, coverers: coverersOf(in)}
	for e := 0; e < in.UniverseSize; e++ {
		if len(s.coverers[e]) == 0 {
			return nil, 0, nil // infeasible: no set covers e
		}
	}
	// Greedy incumbent (feasible: every element has a coverer).
	s.best = GreedySetCover(in)
	s.bestCost = 0
	for _, i := range s.best {
		s.bestCost += in.weight(i)
	}
	s.minWeight = math.MaxInt64
	for i := range in.Sets {
		if w := in.weight(i); w > 0 && w < s.minWeight {
			s.minWeight = w
		}
	}
	if s.minWeight == math.MaxInt64 {
		s.minWeight = 0
	}

	covered := bitset.New(in.UniverseSize)
	avail := bitset.New(len(in.Sets))
	for i := range in.Sets {
		avail.Add(i)
		// Zero-weight sets are free: commit them upfront.
		if in.weight(i) == 0 {
			covered.Or(in.Sets[i])
			avail.Remove(i)
			s.zero = append(s.zero, i)
		}
	}
	if err := s.solve(covered, avail, nil, 0); err != nil {
		return nil, s.nodes, err
	}
	out := make([]int, 0, len(s.zero)+len(s.best))
	out = append(out, s.zero...)
	out = append(out, s.best...)
	sort.Ints(out)
	// Deduplicate (a zero set may also appear in the greedy incumbent).
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup, s.nodes, nil
}

// coverersOf lists, per element, the indices of the sets containing it in
// increasing order.
func coverersOf(in *SetCoverInstance) [][]int {
	coverers := make([][]int, in.UniverseSize)
	for i, set := range in.Sets {
		set.ForEach(func(e int) bool {
			coverers[e] = append(coverers[e], i)
			return true
		})
	}
	return coverers
}

// SetCoverPackingBound is the search's element-packing lower bound on the
// whole instance: elements whose coverer collections are pairwise disjoint
// each need their own set, costing at least their cheapest coverer. It
// returns math.MaxInt64/4 if some element is in no set.
func SetCoverPackingBound(in *SetCoverInstance) int64 {
	avail := bitset.New(len(in.Sets))
	for i := range in.Sets {
		avail.Add(i)
	}
	return packingBound(in, coverersOf(in), bitset.New(in.UniverseSize), avail)
}

type scSolver struct {
	in        *SetCoverInstance
	coverers  [][]int
	best      []int
	bestCost  int64
	minWeight int64
	zero      []int
	nodes     int64
	maxNodes  int64
}

// GreedySetCover returns the classical greedy cover: repeatedly take the
// set with the most newly covered elements per unit weight (a zero-weight
// set first), the lowest index among ties. It is the ln-approximation
// baseline, the exact search's initial incumbent, and the kernel's fallback
// when the search exhausts its budget. It returns nil if the instance is
// infeasible.
func GreedySetCover(in *SetCoverInstance) []int {
	covered := bitset.New(in.UniverseSize)
	out := []int{}
	for covered.Count() < in.UniverseSize {
		bestI, bestScore := -1, -1.0
		for i, set := range in.Sets {
			gain := set.Count() - set.IntersectionCount(covered)
			if gain == 0 {
				continue
			}
			w := in.weight(i)
			score := math.Inf(1)
			if w > 0 {
				score = float64(gain) / float64(w)
			}
			if score > bestScore {
				bestI, bestScore = i, score
			}
		}
		if bestI == -1 {
			return nil
		}
		out = append(out, bestI)
		covered.Or(in.Sets[bestI])
	}
	return out
}

// lowerBound is the larger of the density bound (remaining/maxCover) and
// the element-packing bound (elements with pairwise-disjoint coverer sets
// each need their own set).
func (s *scSolver) lowerBound(covered, avail *bitset.Set) int64 {
	remaining := s.in.UniverseSize - covered.Count()
	if remaining == 0 {
		return 0
	}
	maxCover := 0
	for i := avail.First(); i != -1; i = avail.NextAfter(i) {
		if c := s.in.Sets[i].Count() - s.in.Sets[i].IntersectionCount(covered); c > maxCover {
			maxCover = c
		}
	}
	if maxCover == 0 {
		return math.MaxInt64 / 4
	}
	need := (remaining + maxCover - 1) / maxCover
	density := int64(need) * s.minWeight

	packing := packingBound(s.in, s.coverers, covered, avail)
	if packing > density {
		return packing
	}
	return density
}

// packingBound is the element-packing bound over the uncovered elements,
// counting only the sets in avail; math.MaxInt64/4 if some uncovered element
// has no available coverer.
func packingBound(in *SetCoverInstance, coverers [][]int, covered, avail *bitset.Set) int64 {
	marked := bitset.New(len(in.Sets))
	var packing int64
	for e := 0; e < in.UniverseSize; e++ {
		if covered.Contains(e) {
			continue
		}
		disjoint := true
		cheapest := int64(math.MaxInt64)
		anyAvail := false
		for _, i := range coverers[e] {
			if !avail.Contains(i) {
				continue
			}
			anyAvail = true
			if marked.Contains(i) {
				disjoint = false
				break
			}
			if w := in.weight(i); w < cheapest {
				cheapest = w
			}
		}
		if !anyAvail {
			return math.MaxInt64 / 4
		}
		if !disjoint {
			continue
		}
		packing += cheapest
		for _, i := range coverers[e] {
			if avail.Contains(i) {
				marked.Add(i)
			}
		}
	}
	return packing
}

func (s *scSolver) solve(covered, avail *bitset.Set, cur []int, cost int64) error {
	s.nodes++
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		return ErrBudgetExceeded
	}
	if cost >= s.bestCost {
		return nil
	}
	if covered.Count() == s.in.UniverseSize {
		s.bestCost = cost
		s.best = append([]int(nil), cur...)
		return nil
	}
	if cost+s.lowerBound(covered, avail) >= s.bestCost {
		return nil
	}

	// Branch on the uncovered element with the fewest available coverers.
	pick, pickCount := -1, math.MaxInt32
	for e := 0; e < s.in.UniverseSize; e++ {
		if covered.Contains(e) {
			continue
		}
		c := 0
		for _, i := range s.coverers[e] {
			if avail.Contains(i) {
				c++
			}
		}
		if c < pickCount {
			pick, pickCount = e, c
		}
		if c == 0 {
			break
		}
	}
	if pickCount == 0 {
		return nil
	}

	cands := make([]int, 0, pickCount)
	for _, i := range s.coverers[pick] {
		if avail.Contains(i) {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ga := s.in.Sets[cands[a]].Count() - s.in.Sets[cands[a]].IntersectionCount(covered)
		gb := s.in.Sets[cands[b]].Count() - s.in.Sets[cands[b]].IntersectionCount(covered)
		wa, wb := s.in.weight(cands[a]), s.in.weight(cands[b])
		return float64(ga)*float64(wb) > float64(gb)*float64(wa)
	})
	var excluded []int
	for _, i := range cands {
		c2 := covered.Union(s.in.Sets[i])
		avail.Remove(i)
		if err := s.solve(c2, avail, append(cur, i), cost+s.in.weight(i)); err != nil {
			return err
		}
		excluded = append(excluded, i)
	}
	for _, i := range excluded {
		avail.Add(i)
	}
	return nil
}
