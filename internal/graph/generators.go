package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Generators for the workloads used throughout the experiment harness.
// All randomized generators take an explicit *rand.Rand so every experiment
// is reproducible from a seed.

// Path returns the path graph P_n (v0 - v1 - … - v_{n-1}).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph C_n (n ≥ 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle(%d) needs n ≥ 3", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with vertex 0 as the center.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// RandomTree returns a uniform random labelled tree on n vertices, built by
// attaching each vertex i ≥ 1 to a uniformly random earlier vertex.
func RandomTree(n int, rng *rand.Rand) *Graph {
	parent := make([]int32, n)
	for v := 1; v < n; v++ {
		parent[v] = int32(rng.Intn(v))
	}
	return fromEdges(n, max(n-1, 0), func(add func(u, v int)) {
		for v := 1; v < n; v++ {
			add(v, int(parent[v]))
		}
	})
}

// Caterpillar returns a caterpillar: a spine path of length spine with legs
// pendant vertices attached to each spine vertex. Caterpillars make G²
// dramatically denser than G (each spine neighborhood becomes a clique),
// which is exactly the structure Algorithm 1's Phase I exploits.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	return fromEdges(n, max(n-1, 0), func(add func(u, v int)) {
		for i := 0; i+1 < spine; i++ {
			add(i, i+1)
		}
		next := spine
		for i := 0; i < spine; i++ {
			for l := 0; l < legs; l++ {
				add(i, next)
				next++
			}
		}
	})
}

// GNP returns an Erdős–Rényi G(n, p) random graph.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// ConnectedGNP returns G(n, p) conditioned on connectivity by first laying
// down a random spanning tree and then adding each remaining pair with
// probability p. Connected inputs are required by the CONGEST algorithms
// (a leader must be reachable from everywhere).
func ConnectedGNP(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(perm[i], perm[rng.Intn(i)])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				_, _ = b.AddEdgeIfAbsent(u, v)
			}
		}
	}
	return b.Build()
}

// GNM returns a uniform-ish random graph with (up to) m edges sampled by
// endpoint pairs with rejection of self-loops and duplicates. Unlike GNP's
// O(n²) Bernoulli sweep this is O(m) work and memory, which makes it the
// generator of choice for sparse million-node instances; the number of
// sampling attempts is capped so adversarial (n, m) combinations terminate
// with fewer edges instead of looping.
func GNM(n, m int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if n > 1 {
		attempts := 20*m + 100
		for added := 0; added < m && attempts > 0; attempts-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if ok, _ := b.AddEdgeIfAbsent(u, v); ok {
				added++
			}
		}
	}
	return b.Build()
}

// ConnectedGNM returns a connected sparse random graph with (up to) m edges:
// a random spanning tree (each vertex i ≥ 1 attaches to a random earlier
// vertex, under a random relabeling) plus m-(n-1) extra uniformly sampled
// edges as in GNM. Connected inputs are required by the leader-based CONGEST
// algorithms, and at O(m) cost this is the only connectivity-conditioned
// generator usable at n ≈ 10⁶.
func ConnectedGNM(n, m int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if n > 1 {
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.MustAddEdge(perm[i], perm[rng.Intn(i)])
		}
		extra := m - (n - 1)
		attempts := 20*extra + 100
		for added := 0; added < extra && attempts > 0; attempts-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if ok, _ := b.AddEdgeIfAbsent(u, v); ok {
				added++
			}
		}
	}
	return b.Build()
}

// UnitDisk returns a random unit-disk graph: n points uniform in the unit
// square, connected iff within Euclidean distance radius. This is the
// classical model for the radio networks that motivate computing on G²
// (frequency assignment: two transmitters interfere iff they share a
// listener, i.e. are adjacent in G²).
func UnitDisk(n int, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// ConnectedUnitDisk retries UnitDisk until the result is connected, growing
// the radius by 10% every maxTries failures so termination is guaranteed.
func ConnectedUnitDisk(n int, radius float64, rng *rand.Rand) *Graph {
	const maxTries = 20
	for {
		for try := 0; try < maxTries; try++ {
			g := UnitDisk(n, radius, rng)
			if g.Connected() {
				return g
			}
		}
		radius *= 1.1
		if radius > math.Sqrt2 {
			return Complete(n) // radius covers the square: degenerate but safe
		}
	}
}

// RandomBipartite returns a random bipartite graph with sides of size left
// and right and edge probability p; vertices 0…left-1 form the left side.
func RandomBipartite(left, right int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(left + right)
	for u := 0; u < left; u++ {
		for v := 0; v < right; v++ {
			if rng.Float64() < p {
				b.MustAddEdge(u, left+v)
			}
		}
	}
	return b.Build()
}

// WithRandomWeights returns a copy of g with independent uniform vertex
// weights in [1, maxW]. The paper's MWVC algorithm assumes O(log n)-bit
// weights; callers pick maxW = poly(n) accordingly. The copy takes g's CSR
// arrays as they are, with no edge set to rebuild.
func WithRandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	h := fromCSR(g.n, slices.Clone(g.IndPtr()), slices.Clone(g.Indices()))
	if g.n > 0 {
		h.weights = make([]int64, g.n)
		for v := range h.weights {
			h.weights[v] = 1 + rng.Int63n(maxW)
		}
	}
	h.names = slices.Clone(g.names)
	return h
}
