package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Sparse is a set over the universe {0, …, n-1} that stores only its
// nonzero 64-bit words, sorted by word index. A word that becomes zero is
// removed, so equal sets have equal encodings (see AppendKey). Memory and
// every operation cost O(stored words) — O(log) for point lookups — rather
// than Set's O(n/64), which is what a row of a sparse graph needs when n
// is large: a degree-d row holds at most d words whatever n is.
//
// The zero value is an empty set of capacity zero; use NewSparse. Like Set,
// binary operations panic on a capacity mismatch.
type Sparse struct {
	n     int
	idx   []uint32 // word indices, strictly increasing
	words []uint64 // words[k] is word idx[k]; never zero
}

// NewSparse returns the set of capacity n holding elems. Sorted input (a
// CSR row) is built by appending, with storage sized exactly.
func NewSparse(n int, elems []int) Sparse {
	return SparseRows(n, 1, func(int) []int { return elems })[0]
}

// SparseRows returns count sets of capacity n, set i holding row(i) — an
// adjacency table built from CSR rows. All sets share two allocations; each
// set's storage is capped at its own size, so a set that grows moves out
// instead of overwriting the next one.
func SparseRows(n, count int, row func(i int) []int) []Sparse {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	total := 0
	for i := 0; i < count; i++ {
		total += wordRuns(row(i))
	}
	idx, words := make([]uint32, total), make([]uint64, total)
	out := make([]Sparse, count)
	for i := range out {
		elems := row(i)
		size := wordRuns(elems)
		s := &out[i]
		s.n, s.idx, s.words = n, idx[:0:size], words[:0:size]
		idx, words = idx[size:], words[size:]
		for _, e := range elems {
			s.Add(e)
		}
	}
	return out
}

// wordRuns counts the runs of equal word indices in elems: an upper bound
// on its distinct words, and exactly their number when elems is sorted.
func wordRuns(elems []int) int {
	runs := 0
	for i, e := range elems {
		if i == 0 || e/wordBits != elems[i-1]/wordBits {
			runs++
		}
	}
	return runs
}

// check and mustMatch stay small enough to inline into the row walks; the
// panics are built out of line.
func (s *Sparse) check(i int) {
	if uint(i) >= uint(s.n) {
		panicRange(i, s.n)
	}
}

func (s *Sparse) mustMatch(n int) {
	if s.n != n {
		panicMismatch(s.n, n)
	}
}

func panicRange(i, n int) {
	panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, n))
}

func panicMismatch(n, m int) {
	panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", n, m))
}

// find returns the position of word wi among the stored words, or where it
// would be inserted, and whether it is stored.
func (s *Sparse) find(wi uint32) (int, bool) {
	lo, hi := 0, len(s.idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.idx[mid] < wi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.idx) && s.idx[lo] == wi
}

// Add inserts element i.
func (s *Sparse) Add(i int) {
	s.check(i)
	wi, bit := uint32(i/wordBits), uint64(1)<<uint(i%wordBits)
	if k := len(s.idx); k == 0 || s.idx[k-1] < wi {
		s.idx = append(s.idx, wi)
		s.words = append(s.words, bit)
		return
	}
	p, ok := s.find(wi)
	if ok {
		s.words[p] |= bit
		return
	}
	s.idx = slices.Insert(s.idx, p, wi)
	s.words = slices.Insert(s.words, p, bit)
}

// Remove deletes element i.
func (s *Sparse) Remove(i int) {
	s.check(i)
	p, ok := s.find(uint32(i / wordBits))
	if !ok {
		return
	}
	if s.words[p] &^= uint64(1) << uint(i%wordBits); s.words[p] == 0 {
		s.idx = slices.Delete(s.idx, p, p+1)
		s.words = slices.Delete(s.words, p, p+1)
	}
}

// Contains reports whether i is in the set.
func (s *Sparse) Contains(i int) bool {
	s.check(i)
	p, ok := s.find(uint32(i / wordBits))
	return ok && s.words[p]&(uint64(1)<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Sparse) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping the storage.
func (s *Sparse) Clear() {
	s.idx, s.words = s.idx[:0], s.words[:0]
}

// CopyFrom overwrites s with the contents of o. Capacities must match.
func (s *Sparse) CopyFrom(o *Sparse) {
	s.mustMatch(o.n)
	s.idx = append(s.idx[:0], o.idx...)
	s.words = append(s.words[:0], o.words...)
}

// First returns the smallest element of the set, or -1 if empty.
func (s *Sparse) First() int {
	if len(s.idx) == 0 {
		return -1
	}
	return int(s.idx[0])*wordBits + bits.TrailingZeros64(s.words[0])
}

// NextAfter returns the smallest element strictly greater than i, or -1.
func (s *Sparse) NextAfter(i int) int {
	if i < -1 {
		i = -1
	}
	j := i + 1
	if j >= s.n {
		return -1
	}
	p, ok := s.find(uint32(j / wordBits))
	if ok {
		if cur := s.words[p] >> uint(j%wordBits); cur != 0 {
			return j + bits.TrailingZeros64(cur)
		}
		p++
	}
	if p == len(s.idx) {
		return -1
	}
	return int(s.idx[p])*wordBits + bits.TrailingZeros64(s.words[p])
}

// ForEach calls fn on each element in increasing order. If fn returns false,
// iteration stops early.
func (s *Sparse) ForEach(fn func(i int) bool) {
	for k, w := range s.words {
		base := int(s.idx[k]) * wordBits
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// SubsetOf reports whether s ⊆ o, in one merge walk over both sets' words.
func (s *Sparse) SubsetOf(o *Sparse) bool {
	s.mustMatch(o.n)
	if len(s.idx) > len(o.idx) {
		return false // every stored word of s needs a stored word of o
	}
	j := 0
	for k, wi := range s.idx {
		for j < len(o.idx) && o.idx[j] < wi {
			j++
		}
		if j == len(o.idx) || o.idx[j] != wi || s.words[k]&^o.words[j] != 0 {
			return false
		}
	}
	return true
}

// Or sets s = s ∪ o. It grows s once and merges from the back, so no word
// of s is overwritten before it is read; with spare capacity it does not
// allocate.
func (s *Sparse) Or(o *Sparse) {
	s.mustMatch(o.n)
	size, p := len(s.idx), 0
	for _, wi := range o.idx {
		for p < len(s.idx) && s.idx[p] < wi {
			p++
		}
		if p == len(s.idx) || s.idx[p] != wi {
			size++
		}
	}
	i, j := len(s.idx)-1, len(o.idx)-1
	s.idx = slices.Grow(s.idx, size-len(s.idx))[:size]
	s.words = slices.Grow(s.words, size-len(s.words))[:size]
	for k := size - 1; j >= 0; k-- {
		switch {
		case i >= 0 && s.idx[i] > o.idx[j]:
			s.idx[k], s.words[k] = s.idx[i], s.words[i]
			i--
		case i >= 0 && s.idx[i] == o.idx[j]:
			s.idx[k], s.words[k] = s.idx[i], s.words[i]|o.words[j]
			i--
			j--
		default:
			s.idx[k], s.words[k] = o.idx[j], o.words[j]
			j--
		}
	}
}

// And sets s = s ∩ d for a dense d of the same capacity, dropping the words
// that become zero.
func (s *Sparse) And(d *Set) {
	s.mustMatch(d.n)
	k := 0
	for p, wi := range s.idx {
		if w := s.words[p] & d.words[wi]; w != 0 {
			s.idx[k], s.words[k] = wi, w
			k++
		}
	}
	s.idx, s.words = s.idx[:k], s.words[:k]
}

// AppendKey appends the set's raw encoding to buf: per stored word, its
// index (4 bytes) and its bits (8 bytes), little-endian. Stored words are
// sorted and never zero, so two sets of one capacity have equal encodings
// exactly when they hold the same elements — the encoding is a map key for
// grouping equal sets.
func (s *Sparse) AppendKey(buf []byte) []byte {
	for k, wi := range s.idx {
		buf = binary.LittleEndian.AppendUint32(buf, wi)
		buf = binary.LittleEndian.AppendUint64(buf, s.words[k])
	}
	return buf
}
