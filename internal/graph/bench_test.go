package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// sparseBench builds the canonical sparse benchmark instance: a connected
// GNM graph with average degree ~4, the regime where the bounded-BFS power
// expansion must stay linear-ish.
func sparseBench(n int) *Graph {
	return ConnectedGNM(n, 2*n, rand.New(rand.NewSource(int64(n))))
}

// BenchmarkPowerSparse pins the cost of Gʳ on sparse graphs past the dense
// cutoff, where Power routes to the bounded-BFS sweep. Watch allocs/op: it
// must stay a small constant (slice-growth events only), not O(n).
func BenchmarkPowerSparse(b *testing.B) {
	for _, n := range []int{20_000, 80_000} {
		for _, r := range []int{2, 3} {
			g := sparseBench(n)
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.Power(r)
				}
			})
		}
	}
}

// TestPowerSparseAllocsFlat is the allocation guard for the bounded-BFS
// power expansion: the whole construction performs a bounded number of
// allocations — the fixed output arrays plus amortized slice growths —
// independent of n. A per-vertex allocation anywhere in the sweep (the old
// densification built a map row per vertex) blows the budget by three
// orders of magnitude at this size.
func TestPowerSparseAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting at n=20k")
	}
	// n must clear both cutoffs: powerDenseCutoff so Power routes to the
	// BFS sweep, and rowsCutoff so the result graph skips eager bitset
	// rows (those are deliberately O(n) allocations for small graphs).
	g := sparseBench(20_000)
	for _, r := range []int{2, 3} {
		allocs := testing.AllocsPerRun(3, func() { g.Power(r) })
		if allocs > 100 {
			t.Errorf("Power(%d) at n=%d performed %.0f allocations, want a flat handful",
				r, g.N(), allocs)
		}
	}
}

// churnBatch stages a batch of k edits on o and returns it: k/2 deletions of
// random edges of view (o's current materialized view) followed by
// insertions of random non-edges.
func churnBatch(o *Overlay, view *Graph, k int, rng *rand.Rand) []EdgeEdit {
	batch := make([]EdgeEdit, 0, k)
	n := view.N()
	for len(batch) < k/2 {
		u := rng.Intn(n)
		adj := view.Adj(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[rng.Intn(len(adj))]
		if o.Delete(u, v) == nil {
			batch = append(batch, EdgeEdit{U: u, V: v, Del: true})
		}
	}
	for len(batch) < k {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && o.Insert(u, v) == nil {
			batch = append(batch, EdgeEdit{U: u, V: v})
		}
	}
	return batch
}

// BenchmarkIncrementalPower is the splice-vs-rebuild grid behind
// IncrementalPower's n/2 full-rebuild fallback: on sparse graphs, one churn
// batch of the given size brings Gʳ up to date either incrementally from the
// previous version or by a full Power(r) of the new view. Only that update
// is timed; staging the batch and materializing the view are not. The
// incremental rows also report the dirty rows per batch.
func BenchmarkIncrementalPower(b *testing.B) {
	for _, n := range []int{20_000, 80_000} {
		g := sparseBench(n)
		for _, r := range []int{2, 3} {
			for _, k := range []int{8, 64, 512} {
				for _, full := range []bool{false, true} {
					mode := "incremental"
					if full {
						mode = "full"
					}
					b.Run(fmt.Sprintf("n=%d/r=%d/edits=%d/%s", n, r, k, mode), func(b *testing.B) {
						rng := rand.New(rand.NewSource(1))
						o := NewOverlay(g)
						view, power := g, g.Power(r)
						dirty := 0
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							batch := churnBatch(o, view, k, rng)
							view = o.Materialize()
							b.StartTimer()
							if full {
								power = view.Power(r)
							} else {
								var st IncPowerStats
								power, st = IncrementalPower(view, power, r, batch)
								dirty += st.Dirty
							}
						}
						if !full {
							b.ReportMetric(float64(dirty)/float64(b.N), "dirty/op")
						}
					})
				}
			}
		}
	}
}
