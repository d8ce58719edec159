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
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		// A tight budget keeps the fuzz fast and exercises the fallback arm
		// as often as the exact one.
		cover, rep := NewSolver(Config{DirectN: -1, MaxNodes: 400}).VertexCover(g)
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

// FuzzVertexCoverSearch drives the exact branch and bound of internal/exact
// directly (no kernelization) over arbitrary graph encodings:
//
//   - the unbounded legacy and splitting searches return feasible covers of
//     the brute-force optimum weight (n ≤ 14);
//   - a repeated call returns the same cover and node count, so no scratch
//     state leaks from one search into the next;
//   - a 1-node budget trips whenever the search needs more than one node;
//     the splitting search then still returns a feasible cover no worse
//     than its seed, and never writes to the seed.
//
// Run the short CI pass with `make fuzz-exact`.
func FuzzVertexCoverSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 9, 9, 9})
	f.Add([]byte{13, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 0})
	f.Add([]byte{20, 250, 3, 77, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		var want int64 = -1
		if g.N() <= 14 {
			want = g.SetWeightOf(exact.BruteVertexCover(g))
		}
		check := func(name string, cover *bitset.Set) {
			t.Helper()
			if ok, witness := verify.IsVertexCover(g, cover); !ok {
				t.Fatalf("%s: infeasible cover (edge %v uncovered) on n=%d m=%d", name, witness, g.N(), g.M())
			}
			if got := g.SetWeightOf(cover); want >= 0 && got != want {
				t.Fatalf("%s: cost %d, brute optimum %d", name, got, want)
			}
		}
		same := func(name string, a, b *bitset.Set, na, nb int64) {
			t.Helper()
			if !a.Equal(b) || na != nb {
				t.Fatalf("%s: repeated call drifted: %v (%d nodes) then %v (%d nodes)", name, a, na, b, nb)
			}
		}

		legacy, legacyNodes := exact.VertexCoverCounted(g)
		check("legacy", legacy)
		again, againNodes := exact.VertexCoverCounted(g)
		same("legacy", legacy, again, legacyNodes, againNodes)

		split, splitNodes, err := exact.VertexCoverBoundedSplitCounted(g, 0, nil)
		if err != nil {
			t.Fatalf("unbounded split search: %v", err)
		}
		check("split", split)
		again, againNodes, _ = exact.VertexCoverBoundedSplitCounted(g, 0, nil)
		same("split", split, again, splitNodes, againNodes)

		tripped, err := exact.VertexCoverBounded(g, 1)
		if legacyNodes > 1 {
			if !errors.Is(err, exact.ErrBudgetExceeded) || tripped != nil {
				t.Fatalf("legacy 1-node budget over %d nodes: cover %v, err %v", legacyNodes, tripped, err)
			}
		} else if err != nil || !tripped.Equal(legacy) {
			t.Fatalf("legacy 1-node search changed: cover %v, err %v", tripped, err)
		}

		seed := bestIncumbent(g)
		seedCopy := seed.Clone()
		best, _, err := exact.VertexCoverBoundedSplitCounted(g, 1, seed)
		if !seed.Equal(seedCopy) {
			t.Fatalf("split search wrote to its seed: %v became %v", seedCopy, seed)
		}
		if ok, witness := verify.IsVertexCover(g, best); !ok {
			t.Fatalf("split 1-node best-so-far infeasible (edge %v uncovered)", witness)
		}
		if got, limit := g.SetWeightOf(best), g.SetWeightOf(seed); got > limit {
			t.Fatalf("split 1-node best-so-far cost %d worse than its seed %d", got, limit)
		}
		_, seededNodes, _ := exact.VertexCoverBoundedSplitCounted(g, 0, seed)
		if seededNodes > 1 && !errors.Is(err, exact.ErrBudgetExceeded) {
			t.Fatalf("split 1-node budget over %d nodes returned err %v", seededNodes, err)
		}
	})
}

// decodeFuzzGraph maps an arbitrary byte string to a graph: byte 0 sets n
// (2..33), then alternating bytes add edges (u, v mod n) and every fifth
// byte contributes a vertex weight in [0, 7] — zero weights included, so the
// free-vertex rule stays under fuzz too.
func decodeFuzzGraph(data []byte) *graph.Graph {
	n := 2
	if len(data) > 0 {
		n = 2 + int(data[0])%32
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
