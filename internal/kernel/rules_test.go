package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

// Per-reduction-rule unit tests. Each rule is checked for
//
//   - safeness: on instances constructed so that (mostly) only the rule
//     under test fires, the lifted solution must still be an optimal cover
//     (cost equal to brute force), and
//   - idempotence: re-kernelizing the extracted kernel applies no further
//     reductions — the fixpoint loop really reached a fixpoint.

// liftedOptimal kernelizes g, solves the kernel exhaustively, lifts, and
// compares against brute force.
func liftedOptimal(t *testing.T, g *graph.Graph, name string) RuleCounts {
	t.Helper()
	var counts RuleCounts
	k := kernelizeVC(g, &counts)
	assertDegrees(t, k, name)
	kg, orig := k.kernelGraph()
	sol, err := exact.VertexCoverBoundedSplit(kg, 0, nil)
	if err != nil {
		t.Fatalf("%s: kernel solve: %v", name, err)
	}
	cover := k.lift(sol, orig)
	if ok, witness := verify.IsVertexCover(g, cover); !ok {
		t.Fatalf("%s: lifted cover infeasible (edge %v uncovered)", name, witness)
	}
	want := costOf(g, exact.BruteVertexCover(g))
	if got := costOf(g, cover); got != want {
		t.Fatalf("%s: lifted cost %d, brute optimum %d (counts %+v)", name, got, want, counts)
	}
	return counts
}

// assertDegrees checks the kernel's maintained live degrees against its
// rows: every rule that edits a row must keep deg in step.
func assertDegrees(t *testing.T, k *vcKernel, name string) {
	t.Helper()
	for v, row := range k.adj {
		if k.deg[v] != row.Count() {
			t.Fatalf("%s: deg[%d] = %d, row holds %d", name, v, k.deg[v], row.Count())
		}
	}
}

// assertIdempotent re-runs the kernelization on the extracted kernel and
// demands zero further change.
func assertIdempotent(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	k := kernelizeVC(g, nil)
	kg, _ := k.kernelGraph()
	var again RuleCounts
	k2 := kernelizeVC(kg, &again)
	kg2, _ := k2.kernelGraph()
	if kg2.N() != kg.N() || kg2.M() != kg.M() || k2.offset != 0 {
		t.Fatalf("%s: kernel not a fixpoint: %d/%d → %d/%d (offset %d, counts %+v)",
			name, kg.N(), kg.M(), kg2.N(), kg2.M(), k2.offset, again)
	}
}

func TestRulePendantUnweighted(t *testing.T) {
	// A star: the hub has too high a degree for fold or domination, so the
	// first leaf the sweep reaches must resolve it via the pendant rule
	// (force the hub, cascade the rest away).
	g := graph.Star(6)
	counts := liftedOptimal(t, g, "pendant/unweighted")
	if counts.Pendant == 0 {
		t.Fatalf("expected pendant applications, got %+v", counts)
	}
	assertIdempotent(t, g, "pendant/unweighted")
}

func TestRulePendantWeightTransfer(t *testing.T) {
	// Pendant v (weight 2) on hub u (weight 5): the exact rule must pay 2,
	// reduce u to 3, and lift v in exactly when u stays out.
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1) // hub 0 — pendant 1
	b.MustAddEdge(0, 2)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 4)
	for v, w := range map[int]int64{0: 5, 1: 2, 2: 1, 3: 4, 4: 3} {
		b.SetWeight(v, w)
	}
	g := b.Build()
	counts := liftedOptimal(t, g, "pendant/weight-transfer")
	if counts.Pendant == 0 {
		t.Fatalf("expected pendant applications, got %+v", counts)
	}
	assertIdempotent(t, g, "pendant/weight-transfer")
}

func TestRuleDomination(t *testing.T) {
	// A triangle with a tail: 1's closed neighborhood contains 2's.
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(1, 3)
	b.MustAddEdge(3, 4)
	g := b.Build()
	counts := liftedOptimal(t, g, "domination")
	if counts.Domination == 0 && counts.Pendant == 0 {
		t.Fatalf("expected domination applications, got %+v", counts)
	}
	assertIdempotent(t, g, "domination")
}

func TestRuleDominationWeightGate(t *testing.T) {
	// Same shape, but the dominator is heavier than the dominated vertex:
	// the rule must NOT fire blindly — optimality after lifting is the
	// whole assertion.
	b := graph.NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(1, 3)
	b.MustAddEdge(3, 4)
	for v, w := range map[int]int64{0: 1, 1: 9, 2: 1, 3: 1, 4: 1} {
		b.SetWeight(v, w)
	}
	liftedOptimal(t, b.Build(), "domination/weight-gate")
}

func TestRuleFoldUnweighted(t *testing.T) {
	// A 6-cycle: every vertex has degree 2 with non-adjacent neighbors, so
	// folding is the only applicable rule and must cascade to a solved
	// instance (OPT(C6) = 3).
	g := graph.Cycle(6)
	counts := liftedOptimal(t, g, "fold/C6")
	if counts.Fold == 0 {
		t.Fatalf("expected fold applications on C6, got %+v", counts)
	}
	assertIdempotent(t, g, "fold/C6")
}

func TestRuleFoldWeighted(t *testing.T) {
	// Folding across every weight regime of the center (w(a), w(v), w(b)):
	// foldable (max ≤ w(v) < sum), too light (unsound to fold — the rule
	// must hold off), and heavy (take both neighbors).
	for name, ws := range map[string][3]int64{
		"foldable":     {4, 5, 3}, // max(4,3) ≤ 5 < 7 → fold
		"light-center": {5, 2, 4}, // w(v)=2 < max → no fold, search solves
		"heavy-center": {2, 7, 3}, // w(v)=7 ≥ 2+3 → take neighbors
		"equal-center": {2, 5, 3}, // w(v)=5 = 2+3 → take neighbors
	} {
		b := graph.NewBuilder(5)
		b.MustAddEdge(0, 1) // path 0–1–2 plus tails keeps degree(1) = 2
		b.MustAddEdge(1, 2)
		b.MustAddEdge(0, 3)
		b.MustAddEdge(2, 4)
		b.SetWeight(0, ws[0])
		b.SetWeight(1, ws[1])
		b.SetWeight(2, ws[2])
		b.SetWeight(3, 6)
		b.SetWeight(4, 6)
		liftedOptimal(t, b.Build(), "fold/"+name)
	}
}

func TestRuleTwin(t *testing.T) {
	// K_{3,4}: both sides are non-adjacent twin classes of degree ≥ 3 (so
	// neither pendant nor fold can pre-empt the merge); OPT = 3.
	buildK34 := func() *graph.Builder {
		b := graph.NewBuilder(7)
		for _, l := range []int{0, 1, 2} {
			for _, r := range []int{3, 4, 5, 6} {
				b.MustAddEdge(l, r)
			}
		}
		return b
	}
	g := buildK34().Build()
	counts := liftedOptimal(t, g, "twin/K34")
	if counts.Twin == 0 {
		t.Fatalf("expected twin merges on K_{3,4}, got %+v", counts)
	}
	assertIdempotent(t, g, "twin/K34")

	// Weighted twins must merge weights, keeping the side totals intact.
	b2 := buildK34()
	for v, w := range map[int]int64{0: 3, 1: 4, 2: 2, 3: 2, 4: 2, 5: 3, 6: 1} {
		b2.SetWeight(v, w)
	}
	liftedOptimal(t, b2.Build(), "twin/weighted")
}

func TestRuleNemhauserTrotter(t *testing.T) {
	// A crown: an independent set of 4 hanging off a matching of 2 — the
	// classical structure the LP decomposition (and crown rule) eliminates
	// entirely. Weighted asymmetry pushes the LP off the all-½ point.
	b := graph.NewBuilder(6)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(0, 3)
	b.MustAddEdge(1, 4)
	b.MustAddEdge(1, 5)
	b.MustAddEdge(0, 1)
	for v, w := range map[int]int64{0: 1, 1: 1, 2: 5, 3: 5, 4: 5, 5: 5} {
		b.SetWeight(v, w)
	}
	g := b.Build()
	liftedOptimal(t, g, "nt/crown")
	assertIdempotent(t, g, "nt/crown")
}

func TestRuleZeroWeightAndDegreeZero(t *testing.T) {
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.SetWeight(0, 0) // free cover vertex
	b.SetWeight(1, 3)
	// 2, 3 isolated.
	g := b.Build()
	counts := liftedOptimal(t, g, "zero-weight")
	if counts.ZeroWeight == 0 || counts.Deg0 == 0 {
		t.Fatalf("expected zero-weight and degree-0 applications, got %+v", counts)
	}
}

// TestRulesRandomizedSafeness is the rule-level fuzz: many tiny random
// weighted graphs, each fully kernelized with per-rule counters, each lift
// compared against brute force. Rules that never fire across the corpus
// fail the test — the corpus must actually exercise the ladder.
func TestRulesRandomizedSafeness(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	var totals RuleCounts
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(10)
		g := graph.GNP(n, 0.15+0.5*rng.Float64(), rng)
		if i%2 == 0 {
			g = graph.WithRandomWeights(g, 6, rng)
		}
		var counts RuleCounts
		k := kernelizeVC(g, &counts)
		assertDegrees(t, k, fmt.Sprintf("instance %d", i))
		kg, orig := k.kernelGraph()
		sol, err := exact.VertexCoverBoundedSplit(kg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cover := k.lift(sol, orig)
		if ok, _ := verify.IsVertexCover(g, cover); !ok {
			t.Fatalf("instance %d: lifted cover infeasible", i)
		}
		if got, want := costOf(g, cover), costOf(g, exact.BruteVertexCover(g)); got != want {
			t.Fatalf("instance %d: cost %d vs brute %d", i, got, want)
		}
		totals.Deg0 += counts.Deg0
		totals.ZeroWeight += counts.ZeroWeight
		totals.Pendant += counts.Pendant
		totals.Domination += counts.Domination
		totals.Twin += counts.Twin
		totals.Fold += counts.Fold
		totals.NTForced += counts.NTForced
	}
	if totals.Pendant == 0 || totals.Domination == 0 || totals.Fold == 0 ||
		totals.Twin == 0 || totals.NTForced == 0 || totals.Deg0 == 0 {
		t.Fatalf("corpus failed to exercise every rule: %+v", totals)
	}
}

// TestDSRulesSafeness drives the set-cover reductions the dominating-set
// pipeline uses, again against brute force, and checks idempotence of the
// reduced instance.
func TestDSRulesSafeness(t *testing.T) {
	rng := rand.New(rand.NewSource(54321))
	var totals RuleCounts
	for i := 0; i < 250; i++ {
		n := 2 + rng.Intn(11)
		g := graph.GNP(n, 0.1+0.5*rng.Float64(), rng)
		if i%2 == 0 {
			g = graph.WithRandomWeights(g, 6, rng)
		}
		var counts RuleCounts
		k := kernelizeDS(g, &counts)
		inst, setIDs := k.kernelInstance()
		chosen, err := exact.SetCoverBounded(inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds := k.lift(chosen, setIDs)
		if ok, _ := verify.IsDominatingSet(g, ds); !ok {
			t.Fatalf("instance %d: lifted set not dominating", i)
		}
		if got, want := costOf(g, ds), costOf(g, exact.BruteDominatingSet(g)); got != want {
			t.Fatalf("instance %d: cost %d vs brute %d", i, got, want)
		}
		// Idempotence: a second reduction pass on the survivors does
		// nothing.
		var again RuleCounts
		if k.sweep(&again) {
			t.Fatalf("instance %d: DS reduction not a fixpoint (counts %+v)", i, again)
		}
		totals.UniqueCoverer += counts.UniqueCoverer
		totals.SetDominated += counts.SetDominated
		totals.ElemDominated += counts.ElemDominated
	}
	if totals.UniqueCoverer == 0 || totals.SetDominated == 0 || totals.ElemDominated == 0 {
		t.Fatalf("corpus failed to exercise the set-cover rules: %+v", totals)
	}
}
