package exact

import (
	"math/rand"
	"testing"

	"powergraph/internal/bitset"
)

func instFromSets(universe int, sets ...[]int) *SetCoverInstance {
	in := &SetCoverInstance{UniverseSize: universe}
	for _, s := range sets {
		in.Sets = append(in.Sets, bitset.FromIndices(universe, s...))
	}
	return in
}

func coverWeight(in *SetCoverInstance, chosen []int) int64 {
	var w int64
	for _, i := range chosen {
		w += in.weight(i)
	}
	return w
}

func coversAll(in *SetCoverInstance, chosen []int) bool {
	c := bitset.New(in.UniverseSize)
	for _, i := range chosen {
		c.Or(in.Sets[i])
	}
	return c.Count() == in.UniverseSize
}

func TestSetCoverKnownInstances(t *testing.T) {
	cases := []struct {
		name string
		in   *SetCoverInstance
		want int64
	}{
		{"single set", instFromSets(3, []int{0, 1, 2}), 1},
		{"two halves", instFromSets(4, []int{0, 1}, []int{2, 3}, []int{0, 2}), 2},
		{"greedy trap", instFromSets(6,
			[]int{0, 1, 2, 3}, // greedy takes this...
			[]int{0, 1, 4},    // ...but these two are also needed
			[]int{2, 3, 5},
		), 2},
		{"singletons", instFromSets(3, []int{0}, []int{1}, []int{2}), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chosen := SetCover(tc.in)
			if chosen == nil {
				t.Fatal("infeasible?")
			}
			if !coversAll(tc.in, chosen) {
				t.Fatal("not a cover")
			}
			if got := coverWeight(tc.in, chosen); got != tc.want {
				t.Fatalf("weight %d, want %d", got, tc.want)
			}
		})
	}
}

func TestSetCoverWeighted(t *testing.T) {
	// One big expensive set vs two cheap ones.
	in := instFromSets(4, []int{0, 1, 2, 3}, []int{0, 1}, []int{2, 3})
	in.Weights = []int64{5, 2, 2}
	chosen := SetCover(in)
	if got := coverWeight(in, chosen); got != 4 {
		t.Fatalf("weight %d, want 4 (two cheap sets)", got)
	}
	// Flip: big set becomes cheap.
	in.Weights = []int64{3, 2, 2}
	chosen = SetCover(in)
	if got := coverWeight(in, chosen); got != 3 {
		t.Fatalf("weight %d, want 3 (single big set)", got)
	}
}

func TestSetCoverZeroWeightPrecommit(t *testing.T) {
	in := instFromSets(4, []int{0, 1}, []int{2}, []int{3})
	in.Weights = []int64{0, 1, 1}
	chosen := SetCover(in)
	if !coversAll(in, chosen) {
		t.Fatal("not a cover")
	}
	if got := coverWeight(in, chosen); got != 2 {
		t.Fatalf("weight %d, want 2", got)
	}
	found := false
	for _, i := range chosen {
		if i == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("zero-weight set not pre-committed")
	}
}

func TestSetCoverInfeasible(t *testing.T) {
	in := instFromSets(3, []int{0, 1}) // element 2 uncoverable
	if chosen := SetCover(in); chosen != nil {
		t.Fatalf("expected nil for infeasible, got %v", chosen)
	}
}

func TestSetCoverEmptyUniverse(t *testing.T) {
	in := instFromSets(0)
	chosen := SetCover(in)
	if chosen == nil || len(chosen) != 0 {
		t.Fatalf("empty universe needs no sets (and is feasible), got %#v", chosen)
	}
}

func TestSetCoverBudget(t *testing.T) {
	// A universe requiring branching: pairwise overlapping sets.
	rng := rand.New(rand.NewSource(1))
	in := &SetCoverInstance{UniverseSize: 30}
	for i := 0; i < 25; i++ {
		s := bitset.New(30)
		for e := 0; e < 30; e++ {
			if rng.Intn(3) == 0 {
				s.Add(e)
			}
		}
		in.Sets = append(in.Sets, s)
	}
	if _, _, err := SetCoverBounded(in, 1); err == nil {
		// Possible to solve at the root only if greedy was optimal AND the
		// bound proves it; with random overlapping sets that is unlikely,
		// but tolerate it by requiring a solve with a bigger budget to
		// agree.
		a, _, err := SetCoverBounded(in, 0)
		if err != nil || a == nil {
			t.Fatalf("unlimited solve failed: %v", err)
		}
	}
}
