package congest

import "math/rand"

// Per-node randomness in constant space. math/rand's source is an additive
// lagged Fibonacci generator over a 607-word register: its output k adds
// register word tap = 606 − k to word feed = 333 − k (indices mod 607) and
// stores the sum back at feed. Seeding fills word i from the Lehmer states
// 21+3i, 22+3i and 23+3i of x ← 48271·x mod (2³¹−1) started at the reduced
// seed, XOR-ed with rngCooked[i]; the m-th state is seed·48271^m mod
// (2³¹−1), so any word of the seeded register costs three multiplications
// with lehmerPow. The first rngTap = 273 outputs read only words no output
// has written yet (feeds 333…61, taps 606…334), so nodeSource computes them
// straight from the seed. Output 273 is the first to read a sum back; a
// node that draws that far gets math/rand's own source, seeded and advanced
// past the outputs already drawn. Creating a stream thus costs O(1) time
// and space instead of seeding the 4.9 KB register, and most nodes of a run
// draw far fewer than 273 values.

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// lehmerPow[m] is 48271^m mod (2³¹−1), for every Lehmer state that seeding
// the register reads (m < 24 + 3·606).
var lehmerPow = func() (pow [3*rngLen + 21]uint64) {
	pow[0] = 1
	for m := 1; m < len(pow); m++ {
		pow[m] = pow[m-1] * 48271 % int32max
	}
	return pow
}()

// nodeSource is a rand.Source64 whose stream is exactly that of
// rand.NewSource(seed) for the seed it was given.
type nodeSource struct {
	seed  uint64        // the seed reduced as math/rand reduces it, in [1, 2³¹−2]
	drawn int           // outputs drawn, while fewer than rngTap
	rest  rand.Source64 // math/rand's source, from output rngTap on
}

// Seed restarts the stream at seed, as rand.NewSource(seed) starts.
func (s *nodeSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = nodeSource{seed: uint64(seed)}
}

// word returns register word i as seeding leaves it.
func (s *nodeSource) word(i int) int64 {
	m := 21 + 3*i
	x := func(m int) int64 { return int64(s.seed * lehmerPow[m] % int32max) }
	return x(m)<<40 ^ x(m+1)<<20 ^ x(m+2) ^ rngCooked[i]
}

// Uint64 returns the next output of the stream.
func (s *nodeSource) Uint64() uint64 {
	if k := s.drawn; k < rngTap {
		s.drawn++
		return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
	}
	if s.rest == nil {
		s.rest = rand.NewSource(int64(s.seed)).(rand.Source64)
		for range rngTap {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

// Int63 returns the next output with its top bit cleared, as math/rand's
// source does.
func (s *nodeSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// newNodeRand returns rand.New(rand.NewSource(seed))'s stream.
func newNodeRand(seed int64) *rand.Rand {
	src := new(nodeSource)
	src.Seed(seed)
	return rand.New(src)
}
