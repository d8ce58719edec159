package kernel

import (
	"errors"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

// FuzzKernelLiftFeasible drives the whole kernelize-then-solve ladder over
// arbitrary graph encodings and asserts the two invariants every path must
// keep regardless of which rules fired or whether the budget tripped:
//
//   - the lifted solution is a feasible vertex cover of the input, and
//   - its cost is never below the reported LP-based lower bound (and the
//     report's own cost bookkeeping matches).
//
// Small instances additionally get a brute-force optimality check whenever
// the ladder claims the solve was exact. Run the short CI pass with
// `make fuzz-kernel`.
func FuzzKernelLiftFeasible(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 9, 9, 9})
	f.Add([]byte{20, 250, 3, 77, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	addWordBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		// A tight budget keeps the fuzz fast and exercises the fallback arm
		// as often as the exact one.
		cover, rep := kernelPathSolver(Config{MaxNodes: 400}).VertexCover(g)
		if ok, witness := verify.IsVertexCover(g, cover); !ok {
			t.Fatalf("lifted cover infeasible (edge %v uncovered) on n=%d m=%d", witness, g.N(), g.M())
		}
		cost := g.SetWeightOf(cover)
		if cost != rep.Cost {
			t.Fatalf("report cost %d != actual cost %d", rep.Cost, cost)
		}
		if cost < rep.LowerBound {
			t.Fatalf("cost %d below the LP lower bound %d (path %s)", cost, rep.LowerBound, rep.Path)
		}
		if rep.Optimal && g.N() <= 14 {
			if want := g.SetWeightOf(exact.BruteVertexCover(g)); cost != want {
				t.Fatalf("claimed-exact cost %d, brute optimum %d", cost, want)
			}
		}
	})
}

// FuzzVertexCoverSearch drives the exact branch-and-bound searches of
// internal/exact directly (no kernelization) over arbitrary graph
// encodings. The vertex-cover search
//
//   - returns a feasible cover of the brute-force optimum weight (n ≤ 14);
//   - returns the same cover and node count on a repeated call, so no
//     scratch state leaks from one search into the next;
//   - trips a 1-node budget whenever it needs more than one node, and then
//     still returns a feasible cover no worse than its seed, never writing
//     to the seed.
//
// The set-cover search, through the dominating-set entry points,
//
//   - returns a dominating set of the brute-force optimum weight (n ≤ 14);
//   - returns the same set and node count on a repeated call;
//   - trips a 1-node budget whenever it needs more than one node, and then
//     returns no set.
//
// The set-cover legs run up to fuzzDSMaxN vertices only: that search does
// not split components, and a sparse 100-vertex forest already costs it
// hundreds of thousands of nodes.
//
// Run the short CI pass with `make fuzz-exact`.
func FuzzVertexCoverSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 9, 9, 9})
	f.Add([]byte{13, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 0})
	f.Add([]byte{20, 250, 3, 77, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	addWordBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		small := g.N() <= 14 // brute force stays fast
		same := func(name string, a, b *bitset.Set, na, nb int64) {
			t.Helper()
			if !a.Equal(b) || na != nb {
				t.Fatalf("%s: repeated call drifted: %v (%d nodes) then %v (%d nodes)", name, a, na, b, nb)
			}
		}

		cover, nodes, err := exact.VertexCoverBounded(g, 0, nil)
		if err != nil {
			t.Fatalf("unbounded search: %v", err)
		}
		if ok, witness := verify.IsVertexCover(g, cover); !ok {
			t.Fatalf("infeasible cover (edge %v uncovered) on n=%d m=%d", witness, g.N(), g.M())
		}
		if small {
			if got, want := g.SetWeightOf(cover), g.SetWeightOf(exact.BruteVertexCover(g)); got != want {
				t.Fatalf("cover cost %d, brute optimum %d", got, want)
			}
		}
		again, againNodes, _ := exact.VertexCoverBounded(g, 0, nil)
		same("vertex cover", cover, again, nodes, againNodes)

		seed := bestIncumbent(g)
		seedCopy := seed.Clone()
		best, _, err := exact.VertexCoverBounded(g, 1, seed)
		if !seed.Equal(seedCopy) {
			t.Fatalf("search wrote to its seed: %v became %v", seedCopy, seed)
		}
		if ok, witness := verify.IsVertexCover(g, best); !ok {
			t.Fatalf("1-node best-so-far infeasible (edge %v uncovered)", witness)
		}
		if got, limit := g.SetWeightOf(best), g.SetWeightOf(seed); got > limit {
			t.Fatalf("1-node best-so-far cost %d worse than its seed %d", got, limit)
		}
		_, seededNodes, _ := exact.VertexCoverBounded(g, 0, seed)
		if seededNodes > 1 && !errors.Is(err, exact.ErrBudgetExceeded) {
			t.Fatalf("1-node budget over %d nodes returned err %v", seededNodes, err)
		}

		if g.N() > fuzzDSMaxN {
			return
		}
		ds, dsNodes := exact.DominatingSetCounted(g)
		if ok, witness := verify.IsDominatingSet(g, ds); !ok {
			t.Fatalf("vertex %d undominated on n=%d m=%d", witness, g.N(), g.M())
		}
		if small {
			if got, want := g.SetWeightOf(ds), g.SetWeightOf(exact.BruteDominatingSet(g)); got != want {
				t.Fatalf("dominating set cost %d, brute optimum %d", got, want)
			}
		}
		againDS, againDSNodes := exact.DominatingSetCounted(g)
		same("dominating set", ds, againDS, dsNodes, againDSNodes)
		tripped, err := exact.DominatingSetBounded(g, 1)
		if dsNodes > 1 {
			if !errors.Is(err, exact.ErrBudgetExceeded) || tripped != nil {
				t.Fatalf("1-node budget over %d nodes: set %v, err %v", dsNodes, tripped, err)
			}
		} else if err != nil || !tripped.Equal(ds) {
			t.Fatalf("1-node dominating-set search changed: set %v, err %v", tripped, err)
		}
	})
}

// fuzzDSMaxN is the largest decoded graph the set-cover legs of
// FuzzVertexCoverSearch run on: the largest n of a byte 0 below 128.
const fuzzDSMaxN = 33

// addWordBoundarySeeds adds seeds at n = 64, 65 and 129 whose edges join
// vertices on both sides of a 64-bit word boundary, with zero and positive
// weights.
func addWordBoundarySeeds(f *testing.F) {
	f.Add([]byte{158, 62, 63, 63, 0, 0, 62, 31, 63, 63, 32, 32, 31, 1, 63})
	f.Add([]byte{159, 63, 64, 64, 0, 62, 64, 63, 62, 64, 1, 1, 63, 0, 62, 5, 64})
	f.Add([]byte{223, 127, 128, 128, 63, 63, 64, 64, 127, 0, 128, 127, 0, 65, 128, 62, 63, 129, 64})
}

// decodeFuzzGraph maps an arbitrary byte string to a graph: byte 0 sets n
// (2..33 below 128, else 34..161, so rows span one, two or three 64-bit
// words), then alternating bytes add edges (u, v mod n) and every fifth
// byte contributes a vertex weight in [0, 7] — zero weights included, so the
// free-vertex rule stays under fuzz too. Above 33 vertices at most 2n edge
// pairs are read: the graphs stay as sparse as the leader's instances, where
// the unbounded search takes milliseconds.
func decodeFuzzGraph(data []byte) *graph.Graph {
	n := 2
	if len(data) > 0 {
		if b := int(data[0]); b < 128 {
			n = 2 + b%32
		} else {
			n = 34 + b - 128
			data = data[:min(len(data), 1+4*n)]
		}
	}
	b := graph.NewBuilder(n)
	for i := 1; i+1 < len(data); i += 2 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		if u != v {
			if _, err := b.AddEdgeIfAbsent(u, v); err != nil {
				panic(err) // unreachable: endpoints are in range and u != v
			}
		}
		if i%5 == 0 {
			b.SetWeight(u, int64(data[i+1]%8))
		}
	}
	return b.Build()
}
