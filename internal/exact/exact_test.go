package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

func TestVertexCoverSmallKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"empty", graph.NewBuilder(5).Build(), 0},
		{"single edge", graph.Path(2), 1},
		{"P4", graph.Path(4), 2},
		{"P5", graph.Path(5), 2},
		{"C5", graph.Cycle(5), 3},
		{"K4", graph.Complete(4), 3},
		{"K6", graph.Complete(6), 5},
		{"star", graph.Star(8), 1},
		{"C6", graph.Cycle(6), 3},
		{"grid 2x3", graph.Grid(2, 3), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := VertexCover(tc.g)
			if ok, w := verify.IsVertexCover(tc.g, s); !ok {
				t.Fatalf("not a cover, witness %v", w)
			}
			if got := verify.Cost(tc.g, s); got != tc.want {
				t.Fatalf("cost = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestDominatingSetSmallKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"single vertex", graph.NewBuilder(1).Build(), 1},
		{"two isolated", graph.NewBuilder(2).Build(), 2},
		{"star", graph.Star(8), 1},
		{"P2", graph.Path(2), 1},
		{"P4", graph.Path(4), 2},
		{"P7", graph.Path(7), 3},
		{"C4", graph.Cycle(4), 2},
		{"C7", graph.Cycle(7), 3},
		{"K5", graph.Complete(5), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DominatingSet(tc.g)
			if ok, w := verify.IsDominatingSet(tc.g, s); !ok {
				t.Fatalf("not dominating, witness %d", w)
			}
			if got := verify.Cost(tc.g, s); got != tc.want {
				t.Fatalf("cost = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestQuickVertexCoverMatchesBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := graph.GNP(n, 0.35, rng)
		a := verify.Cost(g, VertexCover(g))
		b := verify.Cost(g, BruteVertexCover(g))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightedVertexCoverMatchesBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(11)
		g := graph.WithRandomWeights(graph.GNP(n, 0.35, rng), 20, rng)
		a := verify.Cost(g, VertexCover(g))
		b := verify.Cost(g, BruteVertexCover(g))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDominatingSetMatchesBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(11)
		g := graph.GNP(n, 0.3, rng)
		a := verify.Cost(g, DominatingSet(g))
		b := verify.Cost(g, BruteDominatingSet(g))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightedDominatingSetMatchesBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := graph.WithRandomWeights(graph.GNP(n, 0.3, rng), 15, rng)
		a := verify.Cost(g, DominatingSet(g))
		b := verify.Cost(g, BruteDominatingSet(g))
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexCoverOnSquares(t *testing.T) {
	// The exact solver is mostly used on squares of graphs; check a few.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 15; i++ {
		n := 4 + rng.Intn(10)
		g := graph.ConnectedGNP(n, 0.2, rng)
		sq := g.Square()
		s := VertexCover(sq)
		if ok, _ := verify.IsSquareVertexCover(g, s); !ok {
			t.Fatal("exact VC of square fails square checker")
		}
		want := verify.Cost(sq, BruteVertexCover(sq))
		if got := verify.Cost(sq, s); got != want {
			t.Fatalf("square VC cost %d, want %d", got, want)
		}
	}
}

func TestVertexCoverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(40, 0.5, rng)
	if _, _, err := VertexCoverBounded(g, 2, nil); err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	if _, _, err := VertexCoverBounded(graph.Path(4), 0, nil); err != nil {
		t.Fatalf("unlimited budget errored: %v", err)
	}
}

func TestDominatingSetBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(60, 0.1, rng)
	if _, err := DominatingSetBounded(g, 1); err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
}

func TestGreedyDominatingSetFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		n := 3 + rng.Intn(14)
		g := graph.GNP(n, 0.3, rng)
		s := GreedyDominatingSet(g)
		if ok, w := verify.IsDominatingSet(g, s); !ok {
			t.Fatalf("greedy not dominating, witness %d", w)
		}
		// ln-approximation sanity: greedy ≤ (ln Δ+1 + 1) · OPT + 1.
		opt := verify.Cost(g, BruteDominatingSet(g))
		if opt > 0 {
			// Very loose sanity bound: greedy never exceeds H_{Δ+1}·OPT.
			h := 0.0
			for k := 1; k <= g.MaxDegree()+1; k++ {
				h += 1.0 / float64(k)
			}
			if float64(verify.Cost(g, s)) > h*float64(opt)+1e-9 {
				t.Fatalf("greedy %d exceeds H_(Δ+1)=%f times opt %d", verify.Cost(g, s), h, opt)
			}
		}
	}
}

func TestBruteForcePanicsOnLargeGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BruteVertexCover(graph.Path(30))
}

func TestExactSolverModerateSize(t *testing.T) {
	// Exercise B&B well beyond brute-force range: a 60-vertex sparse graph.
	rng := rand.New(rand.NewSource(51))
	g := graph.ConnectedGNP(60, 0.05, rng)
	s := VertexCover(g)
	if ok, _ := verify.IsVertexCover(g, s); !ok {
		t.Fatal("infeasible")
	}
	if lb := verify.MatchingLowerBound(g); verify.Cost(g, s) < lb {
		t.Fatalf("cover %d below matching LB %d", verify.Cost(g, s), lb)
	}
	d := DominatingSet(g)
	if ok, _ := verify.IsDominatingSet(g, d); !ok {
		t.Fatal("DS infeasible")
	}
}
