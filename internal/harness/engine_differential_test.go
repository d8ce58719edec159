package harness

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// differentialJob builds one job for the given algorithm with a fixed seed
// pair, the way Expand would.
func differentialJob(alg string, n int, eps float64) Job {
	gen := GeneratorSpec{Name: "connected-gnp"}
	j := Job{
		Generator: gen, N: n, Power: 2, Algorithm: alg,
		Epsilon: eps, Trial: 0, OracleN: 26,
	}
	j.Seed = deriveSeed(1, j.cellKey(), 0)
	j.InstanceSeed = deriveSeed(1, j.instanceKey(), 0)
	return j
}

// TestShardedEngineDeterministic runs every registered distributed
// algorithm across its full supported power range at n = 26 under several
// shard counts — sequential, 2, a count that does not divide n, and
// GOMAXPROCS — and requires byte-identical JobResults: solutions, Stats,
// and span summaries all serialize to the same JSON at every shard count.
// The shard barrier must be invisible in everything but wall clock.
func TestShardedEngineDeterministic(t *testing.T) {
	checkShardDifferential(t, 26, []int{1, 2, 7, runtime.GOMAXPROCS(0)})
}

// TestEngineDifferentialAllAlgorithms is the same gate on the small cells
// (n = 9, where most shards hold one or two nodes) at shard counts 1 and 3.
func TestEngineDifferentialAllAlgorithms(t *testing.T) {
	checkShardDifferential(t, 9, []int{1, 3})
}

// checkShardDifferential runs every distributed registry algorithm at every
// supported power on an n-vertex instance under each shard count and
// requires byte-identical JobResults — the acceptance gate for the sharded
// sweep on the paper's algorithms, not just on microbenchmarks.
func checkShardDifferential(t *testing.T, n int, shardCounts []int) {
	for _, alg := range AlgorithmNames() {
		entry, _ := lookupAlgorithm(alg)
		if entry.Model == ModelCentralized {
			continue
		}
		t.Run(alg, func(t *testing.T) {
			for r := 1; r <= 4; r++ {
				if !entry.SupportsPower(r) {
					continue
				}
				var want *JobResult
				var wantJSON []byte
				for _, sc := range shardCounts {
					job := differentialJob(alg, n, 0.5)
					job.Power = r
					job.Seed = deriveSeed(1, job.cellKey(), 0)
					job.InstanceSeed = deriveSeed(1, job.instanceKey(), 0)
					job.Shards = sc
					got := executeJob(job, nil)
					if got.Error != "" {
						t.Fatalf("n=%d r=%d shards=%d: %s", n, r, sc, got.Error)
					}
					got.Elapsed, got.Metrics, got.Shards = 0, nil, 0
					gotJSON, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want, wantJSON = got, gotJSON
						if !got.Verified {
							t.Fatalf("n=%d r=%d: solution failed feasibility", n, r)
						}
						continue
					}
					if *want != *got {
						t.Fatalf("n=%d r=%d: shards=%d diverges from shards=%d:\n%+v\n%+v",
							n, r, sc, shardCounts[0], *want, *got)
					}
					if string(wantJSON) != string(gotJSON) {
						t.Fatalf("n=%d r=%d: serialized results diverge at shards=%d", n, r, sc)
					}
				}
			}
		})
	}
}

// TestEngineAxisSweepIsDifferential runs a sweep over the engine's
// execution axis — shard counts 1 and 3 — through the full Run path and
// checks that each (cell, trial) pair produced identical measurements at
// both counts: the spec-level form of the differential guarantee.
func TestEngineAxisSweepIsDifferential(t *testing.T) {
	spec := &Spec{
		Name:     "diff",
		RootSeed: 3,
		Trials:   2,
		Generators: []GeneratorSpec{
			{Name: "connected-gnp"}, {Name: "random-tree"},
		},
		Sizes:       []int{14},
		Algorithms:  []string{"mvc-congest", "mds-congest", "exact"},
		ShardCounts: []int{1, 3},
		OracleN:     14,
	}
	rep, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d jobs failed", rep.Failed)
	}
	type key struct {
		cell  string
		trial int
	}
	seen := map[key]JobResult{}
	distributed := 0
	for _, r := range rep.Results {
		if r.Model == ModelCentralized {
			if r.Shards != 1 {
				t.Fatalf("centralized job carries shard count %d", r.Shards)
			}
			continue
		}
		distributed++
		k := key{scenarioKey(r.Generator, r.N, r.Power, r.Algorithm, r.Epsilon), r.Trial}
		prev, ok := seen[k]
		if !ok {
			seen[k] = r
			continue
		}
		if prev.Shards == r.Shards {
			t.Fatalf("duplicate shard count %d for %v", r.Shards, k)
		}
		prev.Shards, r.Shards = 0, 0
		prev.Elapsed, r.Elapsed = 0, 0
		prev.Metrics, r.Metrics = nil, nil
		prev.Index, r.Index = 0, 0
		if prev != r {
			t.Fatalf("shard counts diverge for %v:\n%+v\n%+v", k, prev, r)
		}
	}
	if want := 2 * 2 * 2; len(seen) != want || distributed != 2*want {
		t.Fatalf("distributed results = %d over %d cells, want %d over %d",
			distributed, len(seen), 2*want, want)
	}
	// The centralized exact baseline must appear once per scenario, not
	// once per shard count, and the expansion must say so.
	if len(rep.Skipped) == 0 {
		t.Fatal("expected shard-axis collapse notes for the centralized baseline")
	}
}

// TestOracleCacheSharesInstanceAcrossAlgorithms checks the memoization
// contract end to end: algorithms of one scenario cell run on the identical
// graph (same InstanceSeed), so the per-run oracle solves each instance
// once, and every algorithm reports the same optimum.
func TestOracleCacheSharesInstanceAcrossAlgorithms(t *testing.T) {
	spec := &Spec{
		Name:       "oracle",
		RootSeed:   5,
		Trials:     2,
		Generators: []GeneratorSpec{{Name: "connected-gnp"}},
		Sizes:      []int{12, 16},
		Algorithms: []string{"mvc-congest", "mvc-clique-rand", "gavril", "exact"},
		OracleN:    16,
	}
	rep, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d jobs failed", rep.Failed)
	}
	type ik struct {
		n     int
		trial int
	}
	optima := map[ik]int64{}
	for _, r := range rep.Results {
		if r.InstanceSeed == 0 {
			t.Fatalf("job %d has no instance seed", r.Index)
		}
		if r.Optimum < 0 {
			t.Fatalf("job %d missing oracle optimum", r.Index)
		}
		k := ik{r.N, r.Trial}
		if prev, ok := optima[k]; ok && prev != r.Optimum {
			t.Fatalf("instance %v: optima differ across algorithms: %d vs %d", k, prev, r.Optimum)
		}
		optima[k] = r.Optimum
	}
}

// TestOracleCacheSolvesOnce checks the cache mechanics directly: concurrent
// lookups of one key run the solver exactly once.
func TestOracleCacheSolvesOnce(t *testing.T) {
	c := newOracleCache()
	key := oracleKey{gen: "g", n: 5, power: 2, seed: 9, problem: ProblemMVC}
	calls := 0
	for i := 0; i < 4; i++ {
		if got := c.optimum(key, func() int64 { calls++; return 42 }); got != 42 {
			t.Fatalf("optimum = %d", got)
		}
	}
	if calls != 1 {
		t.Fatalf("solver ran %d times, want 1", calls)
	}
	other := key
	other.problem = ProblemMDS
	if got := c.optimum(other, func() int64 { return 7 }); got != 7 {
		t.Fatalf("distinct key returned %d", got)
	}
	// A nil cache (direct executeJob use) still solves.
	var nilCache *oracleCache
	if got := nilCache.optimum(key, func() int64 { return 3 }); got != 3 {
		t.Fatalf("nil cache returned %d", got)
	}
}
