package bitset

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sparseElements lists s in increasing order through ForEach.
func sparseElements(s *Sparse) []int {
	out := []int{}
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// sparseMatches reports whether the sparse set s holds exactly the dense
// set d, through every read path: ForEach, First/NextAfter, Contains and
// Count.
func sparseMatches(s *Sparse, d *Set) bool {
	want := append([]int{}, d.Elements()...)
	if !reflect.DeepEqual(sparseElements(s), want) {
		return false
	}
	walked := []int{}
	for i := s.First(); i != -1; i = s.NextAfter(i) {
		walked = append(walked, i)
	}
	if !reflect.DeepEqual(walked, want) {
		return false
	}
	for i := 0; i < d.Cap(); i++ {
		if s.Contains(i) != d.Contains(i) || s.NextAfter(i) != d.NextAfter(i) {
			return false
		}
	}
	return s.Count() == d.Count() && s.First() == d.First() && s.NextAfter(-5) == d.NextAfter(-5)
}

// TestQuickSparseAgainstSet runs random sequences of Add, Remove, Or,
// And-with-dense, CopyFrom and Clear on two sparse sets beside two dense
// reference sets, and after every step requires equal contents, equal
// SubsetOf answers, and encodings that are equal exactly when the contents
// are — the contract the kernel's twin keys rely on. Capacities include
// ones that are not a multiple of 64, and ids are drawn with extra weight
// on the word boundaries 63 and 64 and on n − 1.
func TestQuickSparseAgainstSet(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 63, 64, 65, 127, 128, 130, 200, 1000}[r.Intn(9)]
		id := func() int {
			switch r.Intn(8) {
			case 0:
				return min(63, n-1)
			case 1:
				return min(64, n-1)
			case 2:
				return n - 1
			default:
				return r.Intn(n)
			}
		}
		sp := [2]Sparse{NewSparse(n, nil), NewSparse(n, nil)}
		ds := [2]*Set{New(n), New(n)}
		// Start from a random, unsorted element list.
		var init []int
		for i := r.Intn(12); i > 0; i-- {
			init = append(init, id())
		}
		sp[0] = NewSparse(n, init)
		ds[0] = FromIndices(n, init...)
		var ka, kb []byte
		for step := 0; step < 60; step++ {
			x := r.Intn(2)
			a, b := &sp[x], &sp[1-x]
			da, db := ds[x], ds[1-x]
			switch r.Intn(9) {
			case 0, 1, 2:
				i := id()
				a.Add(i)
				da.Add(i)
			case 3, 4:
				i := id()
				a.Remove(i)
				da.Remove(i)
			case 5:
				a.Or(b)
				da.Or(db)
			case 6:
				mask := New(n)
				for i := 0; i < n; i++ {
					if r.Intn(4) != 0 {
						mask.Add(i)
					}
				}
				a.And(mask)
				da.And(mask)
			case 7:
				a.CopyFrom(b)
				da.CopyFrom(db)
			case 8:
				if r.Intn(4) == 0 {
					a.Clear()
					da.Clear()
				}
			}
			for j := range sp {
				if !sparseMatches(&sp[j], ds[j]) {
					t.Logf("seed %d step %d: set %d = %v, want %v", seed, step, j, sparseElements(&sp[j]), ds[j])
					return false
				}
			}
			if sp[0].SubsetOf(&sp[1]) != ds[0].SubsetOf(ds[1]) || sp[1].SubsetOf(&sp[0]) != ds[1].SubsetOf(ds[0]) {
				t.Logf("seed %d step %d: SubsetOf disagrees", seed, step)
				return false
			}
			ka, kb = sp[0].AppendKey(ka[:0]), sp[1].AppendKey(kb[:0])
			if bytes.Equal(ka, kb) != ds[0].Equal(ds[1]) {
				t.Logf("seed %d step %d: keys equal %v, contents equal %v", seed, step, bytes.Equal(ka, kb), ds[0].Equal(ds[1]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseRowsShareNoStorage grows one row of a SparseRows table past
// its own storage and checks the neighboring rows are untouched.
func TestSparseRowsShareNoStorage(t *testing.T) {
	rows := [][]int{{1, 2}, {64, 65, 200}, {}, {3, 130}}
	table := SparseRows(256, len(rows), func(i int) []int { return rows[i] })
	table[0].Add(70)
	table[0].Add(250)
	table[2].Add(0)
	want := [][]int{{1, 2, 70, 250}, {64, 65, 200}, {0}, {3, 130}}
	for i := range table {
		if got := sparseElements(&table[i]); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("row %d = %v, want %v", i, got, want[i])
		}
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	cases := []func(*Sparse){
		func(s *Sparse) { s.Add(-1) },
		func(s *Sparse) { s.Add(10) },
		func(s *Sparse) { s.Remove(10) },
		func(s *Sparse) { s.Contains(99) },
		func(s *Sparse) { o := NewSparse(11, nil); s.Or(&o) },
		func(s *Sparse) { s.And(New(11)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			s := NewSparse(10, []int{1})
			fn(&s)
		}()
	}
}
