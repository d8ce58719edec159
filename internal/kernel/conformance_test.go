package kernel

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

// The solver conformance suite: on hundreds of randomized small instances —
// Erdős–Rényi, paths, stars, cliques, cycles, trees, and disjoint unions,
// unweighted and weighted — the kernelize-then-solve pipeline (forced
// through the kernel path, never the direct shortcut) must return solutions
// of exactly the brute-force optimal cost. Set membership may legitimately
// differ (multiple optima); cost equality plus feasibility is the contract.

// kernelPathSolver makes every instance take the kernelization path, so
// the rules and the lift are what is under test.
func kernelPathSolver(cfg Config) *Solver {
	return &Solver{cfg: cfg, kernelOnly: true}
}

// forceKernelPath is kernelPathSolver with an unlimited search budget.
func forceKernelPath() *Solver {
	return kernelPathSolver(Config{MaxNodes: -1})
}

// conformanceInstances builds the instance families: index i of count drives
// both the topology mix and the weight overlay (every third instance is
// weighted).
func conformanceInstances(t *testing.T, count int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var out []*graph.Graph
	for i := 0; i < count; i++ {
		n := 2 + rng.Intn(13) // 2..14: brute force stays fast
		var g *graph.Graph
		switch i % 7 {
		case 0:
			g = graph.GNP(n, 0.25, rng)
		case 1:
			g = graph.GNP(n, 0.5, rng)
		case 2:
			g = graph.Path(n)
		case 3:
			g = graph.Star(n)
		case 4:
			g = graph.Complete(n)
		case 5:
			g = graph.Cycle(n + 2) // Cycle needs ≥ 3 vertices
		default:
			// Disjoint union: two GNP halves with no cross edges.
			b := graph.NewBuilder(n + 4)
			h1 := graph.GNP(n/2+2, 0.4, rng)
			h2 := graph.GNP(n-n/2+2, 0.4, rng)
			for _, e := range h1.Edges() {
				b.MustAddEdge(e[0], e[1])
			}
			off := h1.N()
			for _, e := range h2.Edges() {
				b.MustAddEdge(e[0]+off, e[1]+off)
			}
			g = b.Build()
		}
		if i%3 == 0 {
			g = graph.WithRandomWeights(g, 9, rng)
		}
		out = append(out, g)
	}
	return out
}

func TestKernelVertexCoverConformance(t *testing.T) {
	s := forceKernelPath()
	for i, g := range conformanceInstances(t, 280) {
		name := fmt.Sprintf("instance %d (n=%d m=%d weighted=%v)", i, g.N(), g.M(), g.Weighted())
		cover, rep := s.VertexCover(g)
		if ok, witness := verify.IsVertexCover(g, cover); !ok {
			t.Fatalf("%s: infeasible cover (uncovered edge %v)", name, witness)
		}
		want := g.SetWeightOf(exact.BruteVertexCover(g))
		got := g.SetWeightOf(cover)
		if got != want {
			t.Fatalf("%s: cost %d, brute optimum %d (report %+v)", name, got, want, rep)
		}
		if !rep.Optimal || rep.Path != PathKernelExact {
			t.Fatalf("%s: expected optimal kernel-exact solve, got %+v", name, rep)
		}
		if rep.Cost != got {
			t.Fatalf("%s: report cost %d does not match solution cost %d", name, rep.Cost, got)
		}
		if rep.LowerBound > got {
			t.Fatalf("%s: lower bound %d exceeds optimal cost %d", name, rep.LowerBound, got)
		}
	}
}

func TestKernelDominatingSetConformance(t *testing.T) {
	s := forceKernelPath()
	for i, g := range conformanceInstances(t, 220) {
		name := fmt.Sprintf("instance %d (n=%d m=%d weighted=%v)", i, g.N(), g.M(), g.Weighted())
		ds, rep := s.DominatingSet(g)
		if ok, witness := verify.IsDominatingSet(g, ds); !ok {
			t.Fatalf("%s: not dominating (vertex %v undominated)", name, witness)
		}
		want := g.SetWeightOf(exact.BruteDominatingSet(g))
		got := g.SetWeightOf(ds)
		if got != want {
			t.Fatalf("%s: cost %d, brute optimum %d (report %+v)", name, got, want, rep)
		}
		if !rep.Optimal {
			t.Fatalf("%s: expected optimal solve, got %+v", name, rep)
		}
		if rep.LowerBound > got {
			t.Fatalf("%s: lower bound %d exceeds optimal cost %d", name, rep.LowerBound, got)
		}
	}
}

// TestKernelMatchesLegacyExactOnSquares pins the pipeline against the exact
// search on the raw instance, on the instances that matter most here:
// squares of sparse graphs, where the kernel rules fire heavily. Costs must
// agree exactly.
func TestKernelMatchesLegacyExactOnSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := forceKernelPath()
	for i := 0; i < 40; i++ {
		n := 8 + rng.Intn(20)
		g := graph.ConnectedGNP(n, 2.5/float64(n), rng)
		if i%2 == 1 {
			g = graph.WithRandomWeights(g, 7, rng)
		}
		sq := g.Square()
		cover, _ := s.VertexCover(sq)
		want := sq.SetWeightOf(exact.VertexCover(sq))
		if got := sq.SetWeightOf(cover); got != want {
			t.Fatalf("square instance %d (n=%d): kernel cost %d, raw exact %d", i, n, got, want)
		}
	}
}

// TestKernelDirectPathBitCompatible proves the ladder's direct path returns
// the exact search's cover set (not merely its cost) up to DirectN vertices
// — the property that keeps the golden r = 2 fixtures byte-identical. On
// every vc_search_golden.json instance that small, the default Solver's
// cover must equal the record's pinned unbounded-search ("split") cover;
// on random instances the rung must be taken and return a feasible optimum
// that costs the same as the kernel path.
func TestKernelDirectPathBitCompatible(t *testing.T) {
	raw, err := os.ReadFile(vcSearchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]vcSearchRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	s := NewSolver(Config{})
	pinned := 0
	for name, g := range vcSearchCorpus() {
		rec, ok := golden[name]
		if g.N() > DirectN || !ok || rec.Split == nil {
			continue
		}
		pinned++
		cover, rep := s.VertexCover(g)
		if rep.Path != PathDirect {
			t.Fatalf("%s: expected the direct path, got %s", name, rep.Path)
		}
		if got := cover.String(); got != rec.Split.Cover {
			t.Fatalf("%s: direct path cover %s, pinned search cover %s", name, got, rec.Split.Cover)
		}
	}
	if pinned == 0 {
		t.Fatal("no golden instance with n <= DirectN")
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		n := 4 + rng.Intn(40)
		g := graph.ConnectedGNP(n, 0.2, rng)
		if i%2 == 1 {
			g = graph.WithRandomWeights(g, 9, rng)
		}
		cover, rep := s.VertexCover(g)
		if rep.Path != PathDirect || !rep.Optimal {
			t.Fatalf("n=%d: expected an optimal direct path up to DirectN=%d, got %s (optimal %v)", n, DirectN, rep.Path, rep.Optimal)
		}
		if ok, witness := verify.IsVertexCover(g, cover); !ok {
			t.Fatalf("n=%d: direct path cover misses edge %v", n, witness)
		}
		kcover, _ := forceKernelPath().VertexCover(g)
		if got, want := g.SetWeightOf(cover), g.SetWeightOf(kcover); got != want {
			t.Fatalf("n=%d: direct path cost %d, kernel path cost %d", n, got, want)
		}
	}
}

// TestKernelDeterministic runs the full pipeline twice on identical
// instances and demands identical covers — the property the engine
// differential and byte-identical JSONL contracts inherit.
func TestKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		n := 200 + rng.Intn(100)
		g := graph.WithRandomWeights(graph.RandomTree(n, rng), 16, rng)
		sq := g.Square()
		c1, r1 := NewSolver(Config{}).VertexCover(sq)
		c2, r2 := NewSolver(Config{}).VertexCover(sq)
		if !c1.Equal(c2) {
			t.Fatalf("instance %d: covers differ across runs", i)
		}
		// ReduceNS/SolveNS are wall-clock (json:"-") — the only fields the
		// determinism contract exempts.
		r1.ReduceNS, r1.SolveNS = 0, 0
		r2.ReduceNS, r2.SolveNS = 0, 0
		if r1 != r2 {
			t.Fatalf("instance %d: reports differ: %+v vs %+v", i, r1, r2)
		}
	}
}

// TestKernelFallbackLadder forces the budget to trip and checks the
// polynomial fallback still yields a feasible cover within factor 2 of the
// lower bound, reported as such.
func TestKernelFallbackLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.ConnectedGNP(300, 8.0/300, rng) // dense-core square: rules barely fire
	sq := g.Square()
	cover, rep := kernelPathSolver(Config{MaxNodes: 10}).VertexCover(sq)
	if rep.Path != PathKernelFallback || rep.Optimal {
		t.Fatalf("expected non-optimal kernel-fallback path, got %+v", rep)
	}
	if ok, _ := verify.IsVertexCover(sq, cover); !ok {
		t.Fatal("fallback cover infeasible")
	}
	if rep.LowerBound <= 0 {
		t.Fatalf("fallback run reports no lower bound: %+v", rep)
	}
	if got := sq.SetWeightOf(cover); got > 2*rep.LowerBound {
		t.Fatalf("fallback cost %d exceeds twice the LP lower bound %d", got, rep.LowerBound)
	}

	// The interrupted search must pay out its best-so-far: the fallback can
	// never be worse than the polynomial incumbent the search was seeded
	// with (exact.VertexCoverBounded returns the incumbent-or-better
	// alongside ErrBudgetExceeded).
	kernelized := kernelizeVC(sq, nil)
	kg, _ := kernelized.kernelGraph()
	seed := bestIncumbent(kg)
	sol, _, err := exact.VertexCoverBounded(kg, 10, seed)
	if err == nil {
		t.Fatal("expected the 10-node budget to trip on the dense-core kernel")
	}
	if ok, _ := verify.IsVertexCover(kg, sol); !ok {
		t.Fatal("best-so-far cover infeasible")
	}
	if kg.SetWeightOf(sol) > kg.SetWeightOf(seed) {
		t.Fatalf("best-so-far cover (%d) worse than the seed incumbent (%d)",
			kg.SetWeightOf(sol), kg.SetWeightOf(seed))
	}
}

// TestKernelEmptyAndTiny covers the degenerate shapes the leader can hand
// the solver: empty graphs, a single vertex, a single edge.
func TestKernelEmptyAndTiny(t *testing.T) {
	s := forceKernelPath()
	empty, rep := s.VertexCover(graph.NewBuilder(0).Build())
	if empty.Count() != 0 || rep.Cost != 0 {
		t.Fatalf("empty graph: %v / %+v", empty, rep)
	}
	one, _ := s.VertexCover(graph.NewBuilder(1).Build())
	if one.Count() != 0 {
		t.Fatalf("isolated vertex must not be covered: %v", one)
	}
	edge, _ := s.VertexCover(graph.Path(2))
	if edge.Count() != 1 {
		t.Fatalf("single edge needs exactly one endpoint, got %v", edge)
	}
	dsEmpty, _ := s.DominatingSet(graph.NewBuilder(0).Build())
	if dsEmpty.Count() != 0 {
		t.Fatalf("empty graph dominating set: %v", dsEmpty)
	}
	dsOne, _ := s.DominatingSet(graph.NewBuilder(1).Build())
	if dsOne.Count() != 1 {
		t.Fatalf("an isolated vertex must dominate itself: %v", dsOne)
	}
}

// costOf is a tiny helper shared with the rule tests.
func costOf(g *graph.Graph, s *bitset.Set) int64 { return g.SetWeightOf(s) }
