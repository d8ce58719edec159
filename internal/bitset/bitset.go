// Package bitset provides a fixed-capacity bitset backed by 64-bit words.
//
// Set is the storage substrate for adjacency rows in internal/graph and for
// the branch-and-bound solvers in internal/exact, where dense bit-parallel
// set operations (intersection, difference, popcount) dominate the running
// time. Sparse stores only a set's nonzero words; it is the row type of the
// vertex-cover kernel, whose rows are few words out of n/64. All operations
// treat the set as a subset of {0, …, n-1} where n is the capacity fixed at
// construction.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe {0, …, n-1}.
//
// The zero value is an empty set of capacity zero; use New to create a set
// with a usable capacity. Methods that combine two sets (Or, And, …) require
// both operands to have the same capacity and panic otherwise, because a
// capacity mismatch is always a programming error in this codebase.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set of capacity n containing exactly the given
// elements.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Full returns a set of capacity n containing all of {0, …, n-1}.
func Full(n int) *Set {
	s := New(n)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears any bits beyond capacity in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Cap returns the capacity (universe size) of the set.
func (s *Set) Cap() int { return s.n }

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. Capacities must match.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts element i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes element i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Or sets s = s ∪ o.
func (s *Set) Or(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// And sets s = s ∩ o.
func (s *Set) And(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndNot sets s = s \ o.
func (s *Set) AndNot(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Xor sets s = s △ o (symmetric difference).
func (s *Set) Xor(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] ^= w
	}
}

// Complement sets s = {0,…,n-1} \ s.
func (s *Set) Complement() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// Union returns a new set s ∪ o.
func (s *Set) Union(o *Set) *Set {
	c := s.Clone()
	c.Or(o)
	return c
}

// Intersect returns a new set s ∩ o.
func (s *Set) Intersect(o *Set) *Set {
	c := s.Clone()
	c.And(o)
	return c
}

// Difference returns a new set s \ o.
func (s *Set) Difference(o *Set) *Set {
	c := s.Clone()
	c.AndNot(o)
	return c
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Intersects reports whether s ∩ o is nonempty.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether s ⊆ o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// First returns the smallest element of the set, or -1 if empty.
func (s *Set) First() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstCommon returns the smallest element of s ∩ o, or -1 if the two are
// disjoint, without materializing the intersection.
func (s *Set) FirstCommon(o *Set) int {
	s.mustMatch(o)
	for i, w := range s.words {
		if c := w & o.words[i]; c != 0 {
			return i*wordBits + bits.TrailingZeros64(c)
		}
	}
	return -1
}

// NextAfter returns the smallest element strictly greater than i, or -1.
func (s *Set) NextAfter(i int) int {
	if i < -1 {
		i = -1
	}
	j := i + 1
	if j >= s.n {
		return -1
	}
	w := j / wordBits
	cur := s.words[w] >> uint(j%wordBits)
	if cur != 0 {
		return j + bits.TrailingZeros64(cur)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEach calls fn on each element in increasing order. If fn returns false,
// iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the elements of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{a b c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
		return true
	})
	b.WriteByte('}')
	return b.String()
}
