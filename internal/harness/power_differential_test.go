package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// The cross-power differential suite is the acceptance gate of the Gʳ
// generalization: for every distributed registry algorithm and every power
// it claims to support, the solution must
//
//   - be a feasible cover / dominating set of the materialized Gʳ,
//   - stay within the algorithm's oracle-checked approximation bound, and
//   - be identical — solution, rounds, messages, bits — on the sequential
//     and a sharded sweep (the per-power form of the shard differential).
//
// The r = 2 cells additionally stay bit-identical to the pre-generalization
// implementation via core's TestGoldenR2Regression; together the two suites
// pin both axes of the refactor (old-vs-new at r = 2, and correctness at
// every other r).

// powerJob builds one job for the given algorithm and power with seeds
// derived the way Expand would derive them.
func powerJob(alg string, gen GeneratorSpec, n, r int, eps float64) Job {
	return powerJobSolver(alg, "", gen, n, r, eps)
}

// powerJobSolver is powerJob with an explicit localSolver knob. The solver
// deliberately stays out of seed derivation (like the shard count), so jobs
// that differ only in the solver replay the identical run — which is what
// lets the suite assert the explicit default replays the implicit one.
func powerJobSolver(alg, solver string, gen GeneratorSpec, n, r int, eps float64) Job {
	j := Job{
		Generator: gen, N: n, Power: r, Algorithm: alg,
		Epsilon: eps, Trial: 0, OracleN: n,
		LocalSolver: solver,
	}
	j.Seed = deriveSeed(23, j.cellKey(), 0)
	j.InstanceSeed = deriveSeed(23, j.instanceKey(), 0)
	return j
}

// sparsifySpan extracts the "phase2-sparsify*count:rounds" entry from a
// JobResult span summary.
func sparsifySpan(spans string) (count, rounds int, ok bool) {
	for _, e := range strings.Split(spans, ";") {
		var c, rd int
		if n, _ := fmt.Sscanf(e, "phase2-sparsify*%d:%d", &c, &rd); n == 2 {
			return c, rd, true
		}
	}
	return 0, 0, false
}

// powerRatioBound returns the per-run approximation bound asserted for an
// algorithm at power r, given the instance's Gʳ (for degree-dependent MDS
// bounds). The deterministic and randomized MVC variants guarantee (1+ε)
// per run (the randomized ones through the unconditional rank = id
// fallback); the 5/3 pipeline is 5/3 on squares and bounded by its
// matching-fallback factor 2 elsewhere; MDS gets the greedy-style
// 8·H_{Δ(Gʳ)+1} bound of the [CD18] simulation.
func powerRatioBound(t *testing.T, alg string, r int, eps float64, power *graph.Graph) float64 {
	t.Helper()
	switch alg {
	case "mvc-congest", "mvc-congest-rand", "mwvc-congest", "mvc-clique-det", "mvc-clique-rand":
		return 1 + eps
	case "mvc-congest-53":
		if r == 2 {
			return 5.0 / 3
		}
		return 2
	case "mds-congest":
		h := 0.0
		for i := 1; i <= power.MaxDegree()+1; i++ {
			h += 1.0 / float64(i)
		}
		return 8 * h
	default:
		t.Fatalf("no ratio bound registered for algorithm %q", alg)
		return 0
	}
}

// TestCrossPowerDifferentialSuite sweeps every distributed algorithm over
// every supported power on unweighted and weighted instances, on the
// sequential and a sharded sweep.
func TestCrossPowerDifferentialSuite(t *testing.T) {
	gens := []GeneratorSpec{
		{Name: "connected-gnp"},
		{Name: "connected-gnp", MaxWeight: 12},
		{Name: "caterpillar", Legs: 3},
	}
	const (
		n   = 15
		eps = 0.5
	)
	for _, info := range AlgorithmInfos() {
		if info.Model == ModelCentralized {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			for r := 1; r <= 6; r++ {
				supported := info.SupportsPower(r)
				if wantRange := r >= 1 && r <= 4; supported != wantRange {
					t.Fatalf("SupportsPower(%d) = %v, want %v (distributed algorithms serve r ∈ [1,4])",
						r, supported, wantRange)
				}
				if !supported {
					continue
				}
				for _, gen := range gens {
					jobEps := 0.0
					if info.NeedsEps {
						jobEps = eps
					}
					bat := executeJob(powerJob(info.Name, gen, n, r, jobEps), nil)
					shJob := powerJob(info.Name, gen, n, r, jobEps)
					shJob.Shards = 3
					sh := executeJob(shJob, nil)
					cell := fmt.Sprintf("%s r=%d", gen.Key(), r)
					if bat.Error != "" || sh.Error != "" {
						t.Fatalf("%s: errors: sequential=%q sharded=%q", cell, bat.Error, sh.Error)
					}
					// Shard differential: identical measurements at every r.
					sh.Shards = 0
					bat.Elapsed, sh.Elapsed = 0, 0
					bat.Metrics, sh.Metrics = nil, nil
					if *bat != *sh {
						t.Fatalf("%s: sharded run diverges:\nsequential: %+v\nsharded:    %+v", cell, *bat, *sh)
					}
					// The explicit "kernel-exact" knob must replay the
					// default ("") run identically.
					ker := executeJob(powerJobSolver(info.Name, "kernel-exact", gen, n, r, jobEps), nil)
					ker.Elapsed, ker.Metrics = 0, nil
					if *ker != *bat {
						t.Fatalf("%s: kernel-exact knob diverges from the default:\ndefault:      %+v\nkernel-exact: %+v",
							cell, *bat, *ker)
					}
					// Per-r round bound of the near-U labeling (r ≠ 2; r = 2
					// ships the paper's F-edges unlabeled): exactly
					// SparsifyRounds(r) label rounds; the end mark lands in
					// the handoff slice shared with the item stage, so the
					// span covers exactly SparsifyRounds(r) rounds. Whether
					// the gathered graph is exactly Gʳ[U] is checked
					// directly by core's TestLeaderRebuildsInducedPower.
					if r != 2 && info.Problem == ProblemMVC {
						cnt, rd, ok := sparsifySpan(bat.Spans)
						if !ok {
							t.Fatalf("%s: no phase2-sparsify span in %q", cell, bat.Spans)
						}
						if want := primitives.SparsifyRounds(r); cnt != 1 || rd != want {
							t.Fatalf("%s: phase2-sparsify span *%d:%d, want *1:%d", cell, cnt, rd, want)
						}
					}
					// Feasibility on the materialized Gʳ.
					if !bat.Verified {
						t.Fatalf("%s: solution is not feasible on G^%d", cell, r)
					}
					// Oracle-checked approximation bound.
					if bat.Optimum < 0 {
						t.Fatalf("%s: oracle did not run", cell)
					}
					power := buildPowerInstance(t, gen, n, r, bat.InstanceSeed)
					bound := powerRatioBound(t, info.Name, r, eps, power)
					if bat.Optimum == 0 {
						if bat.Cost != 0 {
							t.Fatalf("%s: OPT=0 but cost=%d", cell, bat.Cost)
						}
					} else if bat.Ratio > bound+1e-9 {
						t.Fatalf("%s: ratio %.4f (cost %d / opt %d) exceeds bound %.4f",
							cell, bat.Ratio, bat.Cost, bat.Optimum, bound)
					}
				}
			}
		})
	}
}

// buildPowerInstance rebuilds the job's materialized Gʳ (the differential
// suite needs its max degree for the MDS bound).
func buildPowerInstance(t *testing.T, gen GeneratorSpec, n, r int, instanceSeed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Build(n, rand.New(rand.NewSource(instanceSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return g.Power(r)
}

// TestCrossPowerSolutionsTrackPower pins the semantic of the power axis on
// a closed form: on the path Pₙ the optimal Gʳ cover is n − ⌈n/(r+1)⌉
// (complement of the maximum distance-(r+1) independent set), strictly
// growing in r — four distinct optima prove the whole pipeline, oracle
// included, actually targets Gʳ rather than a fixed power.
func TestCrossPowerSolutionsTrackPower(t *testing.T) {
	gen := GeneratorSpec{Name: "path"}
	opts := make(map[int]int64)
	for _, r := range []int{1, 2, 3, 4} {
		res := executeJob(powerJob("mvc-congest", gen, 13, r, 0.5), nil)
		if res.Error != "" {
			t.Fatalf("r=%d: %s", r, res.Error)
		}
		if !res.Verified {
			t.Fatalf("r=%d: infeasible", r)
		}
		opts[r] = res.Optimum
	}
	// On P₁₃: opt(G¹)=6, opt(G²)=8, opt(G³)=9, opt(G⁴)=10 — all distinct.
	want := map[int]int64{1: 6, 2: 8, 3: 9, 4: 10}
	for r, w := range want {
		if opts[r] != w {
			t.Errorf("path n=13 r=%d: oracle optimum %d, want %d", r, opts[r], w)
		}
	}
}

// TestPowerSweepSpecCrossPower is the spec-level acceptance test: the
// checked-in specs/power-sweep.json must exercise at least three distributed
// algorithms at r ∈ {1, 2, 3, 4}, with every job feasible
// and every oracle-checked distributed MVC job within its ratio bound.
func TestPowerSweepSpecCrossPower(t *testing.T) {
	if testing.Short() {
		t.Skip("full spec sweep in -short mode")
	}
	spec, err := LoadSpec("../../specs/power-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(t.Context(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Error != "" {
				t.Errorf("%s n=%d r=%d: %s", r.Algorithm, r.N, r.Power, r.Error)
			}
		}
		t.Fatalf("%d jobs failed", rep.Failed)
	}
	distAlgs := map[string]bool{}
	powers := map[int]bool{}
	for _, r := range rep.Results {
		if !r.Verified {
			t.Errorf("%s n=%d r=%d: infeasible on Gʳ", r.Algorithm, r.N, r.Power)
		}
		if r.Model == ModelCentralized {
			continue
		}
		distAlgs[r.Algorithm] = true
		powers[r.Power] = true
		if r.Optimum > 0 && r.Problem == ProblemMVC {
			bound := powerRatioBound(t, r.Algorithm, r.Power, maxEps(spec), nil)
			if r.Ratio > bound+1e-9 {
				t.Errorf("%s n=%d r=%d: ratio %.4f exceeds %.4f",
					r.Algorithm, r.N, r.Power, r.Ratio, bound)
			}
		}
	}
	if len(distAlgs) < 3 {
		t.Errorf("power-sweep exercises %d distributed algorithms, want ≥ 3 (%v)", len(distAlgs), distAlgs)
	}
	for _, r := range []int{1, 2, 3, 4} {
		if !powers[r] {
			t.Errorf("power-sweep has no distributed jobs at r=%d", r)
		}
	}
}

// maxEps returns the largest ε of the spec's grid (the loosest bound any of
// its (1+ε) jobs is entitled to).
func maxEps(s *Spec) float64 {
	m := 0.0
	for _, e := range s.epsilons() {
		m = math.Max(m, e)
	}
	return m
}
