package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Cap() != 100 {
		t.Fatalf("Cap() = %d, want 100", s.Cap())
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
	if s.First() != -1 {
		t.Fatalf("First of empty = %d, want -1", s.First())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("after Add(%d) Contains is false", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove(64) did not remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after double remove = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Set){
		func(s *Set) { s.Add(-1) },
		func(s *Set) { s.Add(10) },
		func(s *Set) { s.Remove(10) },
		func(s *Set) { s.Contains(99) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).Or(New(11))
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		f := Full(n)
		if f.Count() != n {
			t.Fatalf("Full(%d).Count() = %d", n, f.Count())
		}
		for i := 0; i < n; i++ {
			if !f.Contains(i) {
				t.Fatalf("Full(%d) missing %d", n, i)
			}
		}
	}
}

func TestComplement(t *testing.T) {
	s := FromIndices(70, 0, 10, 69)
	s.Complement()
	if s.Count() != 67 {
		t.Fatalf("Count = %d, want 67", s.Count())
	}
	if s.Contains(0) || s.Contains(10) || s.Contains(69) {
		t.Fatal("complement retained original elements")
	}
	if !s.Contains(1) || !s.Contains(68) {
		t.Fatal("complement missing expected elements")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 64, 65)
	b := FromIndices(100, 3, 4, 65, 66)

	if got := a.Union(b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 64, 65, 66}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).Elements(); !reflect.DeepEqual(got, []int{3, 65}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Difference(b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 64}) {
		t.Fatalf("Difference = %v", got)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false, want true")
	}
	if a.Intersects(FromIndices(100, 99)) {
		t.Fatal("Intersects disjoint = true")
	}
	if !FromIndices(100, 3, 65).SubsetOf(a) {
		t.Fatal("SubsetOf = false, want true")
	}
	if a.SubsetOf(b) {
		t.Fatal("SubsetOf = true, want false")
	}
}

func TestXor(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	b := FromIndices(10, 3, 4)
	a.Xor(b)
	if got := a.Elements(); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("Xor = %v", got)
	}
}

func TestFirstNextAfter(t *testing.T) {
	s := FromIndices(200, 5, 63, 64, 150)
	if s.First() != 5 {
		t.Fatalf("First = %d", s.First())
	}
	want := []int{5, 63, 64, 150}
	var got []int
	for i := s.First(); i != -1; i = s.NextAfter(i) {
		got = append(got, i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	if s.NextAfter(150) != -1 {
		t.Fatalf("NextAfter(last) = %d, want -1", s.NextAfter(150))
	}
	if s.NextAfter(-5) != 5 {
		t.Fatalf("NextAfter(-5) = %d, want 5", s.NextAfter(-5))
	}
}

func TestFirstCommon(t *testing.T) {
	a := FromIndices(200, 5, 63, 130, 199)
	cases := []struct {
		b    *Set
		want int
	}{
		{FromIndices(200), -1},
		{FromIndices(200, 6, 64, 131), -1},
		{FromIndices(200, 130, 199), 130},
		{FromIndices(200, 0, 63, 199), 63},
		{a, 5},
	}
	for _, tc := range cases {
		if got := a.FirstCommon(tc.b); got != tc.want {
			t.Errorf("FirstCommon(%v) = %d, want %d", tc.b, got, tc.want)
		}
		if got := a.Intersect(tc.b).First(); got != tc.want {
			t.Errorf("Intersect(%v).First() = %d, want %d", tc.b, got, tc.want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(100, 1, 2, 3, 4)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("seen = %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(64, 1, 2)
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Fatal("mutating clone changed original")
	}
	c := New(64)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom result differs")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 1, 5).String(); got != "{1 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

// refSet is a map-based reference implementation for property testing.
type refSet map[int]bool

func randomPair(r *rand.Rand, n int) (*Set, refSet) {
	s := New(n)
	ref := refSet{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
			ref[i] = true
		}
	}
	return s, ref
}

func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, refA := randomPair(r, n)
		b, refB := randomPair(r, n)

		union := a.Union(b)
		inter := a.Intersect(b)
		diff := a.Difference(b)
		for i := 0; i < n; i++ {
			if union.Contains(i) != (refA[i] || refB[i]) {
				return false
			}
			if inter.Contains(i) != (refA[i] && refB[i]) {
				return false
			}
			if diff.Contains(i) != (refA[i] && !refB[i]) {
				return false
			}
		}
		if inter.Count() != a.IntersectionCount(b) {
			return false
		}
		// De Morgan: complement(a ∪ b) == complement(a) ∩ complement(b).
		ca, cb, cu := a.Clone(), b.Clone(), union.Clone()
		ca.Complement()
		cb.Complement()
		cu.Complement()
		ca.And(cb)
		return ca.Equal(cu)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetTransitivity(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		a, _ := randomPair(r, n)
		b := a.Union(func() *Set { s, _ := randomPair(r, n); return s }())
		c := b.Union(func() *Set { s, _ := randomPair(r, n); return s }())
		return a.SubsetOf(b) && b.SubsetOf(c) && a.SubsetOf(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
