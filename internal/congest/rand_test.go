package congest

import (
	"math/rand"
	"testing"
	"unsafe"

	"powergraph/internal/graph"
)

// streamSeeds covers math/rand's seed reduction: zero (replaced by a fixed
// seed), ±1, the modulus 2³¹−1 and its multiples (which reduce to zero),
// seeds past 2³¹, and negative 64-bit seeds, plus the seeds Node.Rand
// derives from Config.Seed.
var streamSeeds = []int64{
	0, 1, -1, 2, 1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), 5 * (1<<31 - 1),
	1 << 31, 1<<31 + 1, 1 << 40, 1<<62 + 12345, -1 << 31, -1 << 40,
	-(1 << 62) - 7, -1 << 63, 1<<63 - 1, 9 * 1_000_003, 89482311,
}

// TestNodeRandMatchesMathRand: every stream Node.Rand creates is
// rand.New(rand.NewSource(seed))'s, draw for draw, through every method
// the algorithms use and Uint64, across the first 273 outputs that are
// computed from the seed alone and on into the source built after them.
func TestNodeRandMatchesMathRand(t *testing.T) {
	const draws = 2000
	methods := map[string]func(r *rand.Rand) any{
		"Uint64":     func(r *rand.Rand) any { return r.Uint64() },
		"Int63":      func(r *rand.Rand) any { return r.Int63() },
		"Int63n":     func(r *rand.Rand) any { return r.Int63n(1<<40 + 3) },
		"Int31n":     func(r *rand.Rand) any { return r.Int31n(1000) },
		"ExpFloat64": func(r *rand.Rand) any { return r.ExpFloat64() },
		"mixed": func(r *rand.Rand) any {
			return [3]any{r.Int63n(1 << 62), r.ExpFloat64(), r.Uint64()}
		},
	}
	for name, draw := range methods {
		for _, seed := range streamSeeds {
			got, want := newNodeRand(seed), rand.New(rand.NewSource(seed))
			for i := range draws {
				if g, w := draw(got), draw(want); g != w {
					t.Fatalf("%s, seed %d, draw %d: got %v, want %v", name, seed, i, g, w)
				}
			}
		}
	}
}

// TestNodeRandReseed: Seed restarts a stream exactly as a fresh source, also
// after the stream went past the outputs computed from the seed alone.
func TestNodeRandReseed(t *testing.T) {
	r := newNodeRand(3)
	for range 400 {
		r.Uint64()
	}
	r.Seed(-77)
	want := rand.New(rand.NewSource(-77))
	for i := range 600 {
		if g, w := r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("reseeded draw %d: got %d, want %d", i, g, w)
		}
	}
}

// TestNodeRandAllocsBounded: creating a node's stream is two small
// allocations, the source and its rand.Rand, not math/rand's 4.9 KB
// register, and drawing from it allocates nothing until the register is
// built past output 273.
func TestNodeRandAllocsBounded(t *testing.T) {
	eng, err := newEngine(Config{Graph: graph.Path(1), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nd := &eng.nodes[0]
	if a := testing.AllocsPerRun(100, func() {
		nd.rng = nil
		nd.Rand().Int63n(100)
	}); a > 2 {
		t.Fatalf("Node.Rand and a first draw allocate %.0f times, want 2", a)
	}
	if size := unsafe.Sizeof(nodeSource{}); size > 32 {
		t.Fatalf("a node's source holds %d bytes, want at most 32", size)
	}
	r := nd.Rand()
	if a := testing.AllocsPerRun(100, func() { r.ExpFloat64() }); a != 0 {
		t.Fatalf("a draw allocates %.0f times", a)
	}
}
