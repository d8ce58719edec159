package core

import (
	"math/rand"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

func TestCliqueDeterministicSmallGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"edge":    graph.Path(2),
		"path9":   graph.Path(9),
		"cycle7":  graph.Cycle(7),
		"star11":  graph.Star(11),
		"grid3x3": graph.Grid(3, 3),
		"cat":     graph.Caterpillar(5, 4),
	}
	for name, g := range cases {
		for _, eps := range []float64{1, 0.5, 0.25} {
			res, err := ApproxMVCCliqueDeterministic(g, eps, nil)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", name, eps, err)
			}
			checkMVCResult(t, g, eps, res)
		}
	}
}

func TestCliqueRandomizedSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(18)
		g := graph.ConnectedGNP(n, 0.25, rng)
		eps := []float64{1, 0.5}[trial%2]
		res, err := ApproxMVCCliqueRandomized(g, eps, &Options{Seed: int64(trial * 7)})
		if err != nil {
			t.Fatal(err)
		}
		checkMVCResult(t, g, eps, res)
	}
}

func TestCliqueRandomizedDense(t *testing.T) {
	// Dense graphs make Phase I fire heavily under the voting scheme.
	rng := rand.New(rand.NewSource(77))
	g := graph.ConnectedGNP(40, 0.4, rng)
	res, err := ApproxMVCCliqueRandomized(g, 0.5, &Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	if ok, w := verify.IsSquareVertexCover(g, res.Solution); !ok {
		t.Fatalf("infeasible, witness %v", w)
	}
	if res.PhaseISize == 0 {
		t.Fatal("voting Phase I never fired on a dense graph")
	}
}

func TestCliqueRoundsBeatCongestOnDenseGraphs(t *testing.T) {
	// Corollary 10 / Theorem 11's point: the clique's Phase II costs O(1/ε)
	// instead of O(n/ε). Compare round counts on one graph.
	rng := rand.New(rand.NewSource(5))
	g := graph.ConnectedGNP(60, 0.2, rng)
	eps := 0.5
	congestRes, err := ApproxMVCCongest(g, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliqueRes, err := ApproxMVCCliqueDeterministic(g, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cliqueRes.Stats.Rounds >= congestRes.Stats.Rounds {
		t.Fatalf("clique (%d rounds) not faster than CONGEST (%d rounds)",
			cliqueRes.Stats.Rounds, congestRes.Stats.Rounds)
	}
}

func TestCliqueRandomizedLogRoundsScaling(t *testing.T) {
	// Theorem 11: O(log n + 1/ε) rounds. Rounds should grow far slower than
	// linearly: quadrupling n must not even double the rounds.
	rounds := func(n int) int {
		rng := rand.New(rand.NewSource(11))
		g := graph.ConnectedGNP(n, float64(8)/float64(n), rng)
		res, err := ApproxMVCCliqueRandomized(g, 0.5, &Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	r40, r160 := rounds(40), rounds(160)
	if float64(r160) > 2.0*float64(r40)+16 {
		t.Fatalf("rounds not logarithmic-ish: n=40→%d, n=160→%d", r40, r160)
	}
}

func TestCliqueInvalidEps(t *testing.T) {
	g := graph.Path(3)
	if _, err := ApproxMVCCliqueDeterministic(g, 0, nil); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := ApproxMVCCliqueRandomized(g, -0.5, nil); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestCliqueEpsGreaterThanOneShortcut(t *testing.T) {
	g := graph.Cycle(5)
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return ApproxMVCCliqueDeterministic(g, 1.5, nil) },
		func() (*Result, error) { return ApproxMVCCliqueRandomized(g, 1.5, nil) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Solution.Count() != 5 || res.Stats.Rounds != 0 {
			t.Fatalf("shortcut wrong: %d vertices, %d rounds", res.Solution.Count(), res.Stats.Rounds)
		}
	}
}

func TestCliqueRandomizedSeedsAgreeOnFeasibility(t *testing.T) {
	g := graph.Caterpillar(6, 5)
	sq := g.Square()
	opt := verify.Cost(sq, exact.VertexCover(sq))
	for seed := int64(0); seed < 6; seed++ {
		res, err := ApproxMVCCliqueRandomized(g, 0.5, &Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := verify.IsSquareVertexCover(g, res.Solution); !ok {
			t.Fatalf("seed %d: infeasible", seed)
		}
		got := verify.Cost(sq, res.Solution)
		if float64(got) > 1.5*float64(opt)+1e-9 {
			t.Fatalf("seed %d: ratio %d/%d exceeds 1.5", seed, got, opt)
		}
	}
}

// TestMVCCliqueDetAllocsBounded guards the allocation profile of
// Corollary 10's Phase I: the 2-hop maximum is embedded by value and
// restarted in place, so an iteration allocates nothing and a run's
// allocations are per-node setup plus Phase II — measured at about 16 per
// node. A fresh primitive per node per iteration adds one allocation per
// node for each of the 24 iterations on this instance (11 941 per run),
// well past the bound of 20 per node.
func TestMVCCliqueDetAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting over full clique runs at n=300")
	}
	const n = 300
	g := graph.ConnectedGNP(n, 8.0/n, rand.New(rand.NewSource(1)))
	opts := &Options{Seed: 1}
	res, err := ApproxMVCCliqueDeterministic(g, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ApproxMVCCliqueDeterministic(g, 0.5, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run over %d rounds × %d nodes", allocs, res.Stats.Rounds, n)
	if limit := float64(20 * n); allocs >= limit {
		t.Errorf("%.0f allocations per run over %d rounds × %d nodes, want < %.0f (20 per node)",
			allocs, res.Stats.Rounds, n, limit)
	}
}
