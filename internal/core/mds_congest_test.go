package core

import (
	"math"
	"math/rand"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

func checkMDSResult(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if ok, w := verify.IsSquareDominatingSet(g, res.Solution); !ok {
		t.Fatalf("not a dominating set of G², witness %d", w)
	}
}

func TestApproxMDSCongestSmallGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path9":  graph.Path(9),
		"star8":  graph.Star(8),
		"cycle9": graph.Cycle(9),
		"grid":   graph.Grid(3, 4),
	}
	for name, g := range cases {
		res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 7}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMDSResult(t, g, res)
	}
}

func TestApproxMDSCongestApproximationQuality(t *testing.T) {
	// Theorem 28: O(log Δ)-approximation. Check against the exact optimum
	// of G² on small random graphs with the generous 8·H_{Δ²+1} bound the
	// [CD18] analysis gives (footnote 4).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(12)
		g := graph.ConnectedGNP(n, 0.2, rng)
		res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: int64(trial)}})
		if err != nil {
			t.Fatal(err)
		}
		checkMDSResult(t, g, res)
		sq := g.Square()
		opt := verify.Cost(sq, exact.DominatingSet(sq))
		got := verify.Cost(sq, res.Solution)
		h := 0.0
		for k := 1; k <= g.MaxDegree()*g.MaxDegree()+1; k++ {
			h += 1.0 / float64(k)
		}
		bound := 8 * h * float64(opt)
		if float64(got) > bound {
			t.Fatalf("n=%d: MDS size %d exceeds 8·H_{Δ²+1}·OPT = %.1f (opt %d)", n, got, bound, opt)
		}
	}
}

func TestApproxMDSCongestStarIsNearOptimal(t *testing.T) {
	// The square of a star is a clique: OPT = 1. The algorithm should find
	// a tiny dominating set (the density estimates make the center or any
	// vertex a winner fast).
	g := graph.Star(16)
	res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	checkMDSResult(t, g, res)
	if res.Solution.Count() > 4 {
		t.Fatalf("star: dominating set of %d vertices, want ≤ 4", res.Solution.Count())
	}
}

func TestApproxMDSCongestNoFallbackOnTypicalRuns(t *testing.T) {
	// The fallback is a w.h.p. safety net; on these sizes it should never
	// fire with the default phase budget.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		g := graph.ConnectedGNP(16, 0.2, rng)
		res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: int64(trial)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.FallbackJoins != 0 {
			t.Fatalf("fallback fired: %d joins", res.FallbackJoins)
		}
	}
}

func TestApproxMDSCongestPolylogRounds(t *testing.T) {
	// Rounds must scale polylogarithmically in n (for fixed degree
	// profile): going from n=16 to n=64 (4×) may only grow rounds by the
	// polylog factor, far below 4×... but constants matter, so just check
	// the growth is well below linear.
	rounds := func(n int) int {
		g := graph.Cycle(n)
		res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	r16, r64 := rounds(16), rounds(64)
	if float64(r64) > 2.5*float64(r16) {
		t.Fatalf("rounds grew too fast: n=16→%d, n=64→%d", r16, r64)
	}
}

func TestApproxMDSCongestDeterministicPerSeed(t *testing.T) {
	g := graph.Grid(3, 5)
	run := func() string {
		res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 11}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Solution.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different solutions: %s vs %s", a, b)
	}
}

func TestApproxMDSCongestEmptyGraphRejected(t *testing.T) {
	if _, err := ApproxMDSCongest(graph.NewBuilder(0).Build(), nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestApproxMDSCongestP7NeedsAtLeastTwo(t *testing.T) {
	// P7²: one vertex dominates at most positions within distance 2; OPT=2.
	g := graph.Path(7)
	res, err := ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	checkMDSResult(t, g, res)
	if res.Solution.Count() < 2 {
		t.Fatal("impossible: P7² needs ≥ 2 dominators")
	}
	if math.IsNaN(float64(res.Stats.Rounds)) || res.Stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

// TestMDSCongestAllocsBounded guards the steady-state allocation profile of
// the Theorem-28 phase loop: every flood restarts in place and messages are
// pointer-free values, so a run's allocations are per-node setup plus
// amortized buffer growth, independent of the round count — measured at
// about 23 per node at r = 2 (23 200 rounds) and 25 at r = 3 (48 720
// rounds). The bound of 50 per node leaves 2× headroom; one allocation per
// node per flood (a fresh primitive, a buffer rebuilt instead of
// truncated, or a Skip that allocates) costs hundreds per node.
func TestMDSCongestAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting over full MDS runs at n=300")
	}
	const n = 300
	g := graph.ConnectedGNP(n, 8.0/n, rand.New(rand.NewSource(1)))
	for _, r := range []int{2, 3} {
		opts := &MDSOptions{Options: Options{Seed: 1, Power: r}}
		res, err := ApproxMDSCongest(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := ApproxMDSCongest(g, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("r=%d: %.0f allocations per run over %d rounds × %d nodes", r, allocs, res.Stats.Rounds, n)
		if limit := float64(50 * n); allocs >= limit {
			t.Errorf("r=%d: %.0f allocations per run over %d rounds × %d nodes, want < %.0f (50 per node)",
				r, allocs, res.Stats.Rounds, n, limit)
		}
	}
}
