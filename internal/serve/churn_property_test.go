package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"powergraph/internal/graph"
)

// samePower asserts byte-identity of two power graphs: CSR arrays, weights,
// degree structure.
func samePower(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", label, got.N(), got.M(), want.N(), want.M())
	}
	if !slices.Equal(got.IndPtr(), want.IndPtr()) || !slices.Equal(got.Indices(), want.Indices()) {
		t.Fatalf("%s: CSR arrays diverge", label)
	}
	for v := 0; v < got.N(); v++ {
		if got.Weight(v) != want.Weight(v) {
			t.Fatalf("%s: weight of %d: %d vs %d", label, v, got.Weight(v), want.Weight(v))
		}
	}
}

// TestChurnPropertyIncrementalMatchesFull is the serving layer's churn
// property test: a resident instance with all four powers cached absorbs
// random edit batches, and after every batch
//
//  1. each incrementally-maintained Gʳ is byte-identical to a from-scratch
//     view.Power(r), and
//  2. a solve on the churned instance returns identical deterministic
//     results at shard counts {1, 3, GOMAXPROCS}.
func TestChurnPropertyIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := graph.WithRandomWeights(graph.Grid(8, 8), 25, rng) // n=64, sparse: real splices
	inst := NewInstance("churn", base)
	for r := 1; r <= MaxServePower; r++ {
		if _, err := inst.power(r); err != nil {
			t.Fatal(err)
		}
	}

	n := base.N()
	sawSplice := false
	for step := 0; step < 12; step++ {
		batch := 1 + rng.Intn(3)
		if step == 6 {
			batch = 40 // burst: forces the full-recompute fallback at high r
		}
		var edits []graph.EdgeEdit
		for len(edits) < batch {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			dup := false
			for _, e := range edits {
				if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			edits = append(edits, graph.EdgeEdit{U: u, V: v, Del: inst.ov.HasEdge(u, v)})
		}
		res, err := inst.Churn(edits)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, up := range res.Updates {
			if !up.Full {
				sawSplice = true
			}
		}
		for r := 1; r <= MaxServePower; r++ {
			samePower(t, "step "+string(rune('0'+step))+" r="+string(rune('0'+r)),
				inst.powers[r], inst.view.Power(r))
		}
	}
	if !sawSplice {
		t.Fatal("no churn batch exercised the incremental splice path")
	}

	// Shard invariance on the churned instance: identical deterministic
	// responses at every shard count.
	shards := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, alg := range []string{"mvc-congest", "mwvc-congest", "mds-congest"} {
		var want []byte
		for _, sh := range shards {
			resp, err := inst.Solve(context.Background(), SolveRequest{
				Algorithm: alg, Power: 2, Epsilon: 0.5, Seed: 9,
				Shards: sh, Oracle: true,
			})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", alg, sh, err)
			}
			norm := *resp
			norm.Cached = false
			norm.DurationMs = 0
			payload, _ := json.Marshal(norm)
			if want == nil {
				want = payload
			} else if string(payload) != string(want) {
				t.Fatalf("%s shards=%d diverges:\n got: %s\nwant: %s",
					alg, sh, payload, want)
			}
		}
	}
}

// TestChurnCompaction drives enough edits through an instance to trip the
// overlay compaction threshold and checks the view survives intact.
func TestChurnCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction needs >4096 pending edits")
	}
	rng := rand.New(rand.NewSource(5))
	base := graph.GNP(200, 0.02, rng)
	inst := NewInstance("compact", base)
	if _, err := inst.power(2); err != nil {
		t.Fatal(err)
	}
	compacted := false
	for step := 0; step < 12 && !compacted; step++ {
		var edits []graph.EdgeEdit
		seen := map[[2]int]bool{}
		for len(edits) < 512 {
			u, v := rng.Intn(200), rng.Intn(200)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			edits = append(edits, graph.EdgeEdit{U: u, V: v, Del: inst.ov.HasEdge(u, v)})
		}
		res, err := inst.Churn(edits)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		compacted = compacted || res.Compacted
	}
	if !compacted {
		t.Fatal("compaction threshold never tripped")
	}
	if inst.ov.Pending() != 0 {
		t.Fatalf("compaction left %d pending edits", inst.ov.Pending())
	}
	samePower(t, "post-compaction", inst.powers[2], inst.view.Power(2))
}
