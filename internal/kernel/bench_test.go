package kernel

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// BenchmarkKernelVsExact compares the kernelize-then-solve ladder against
// the raw branch and bound (no kernelization) on leader-shaped instances
// (squares of sparse graphs), per generator and size. The raw search runs
// under the stress budget so a hard cell finishes (reported as
// exhausted-per-op rather than hanging); both cells report the search nodes
// expanded, and kernel cells also the kernel size left after reductions.
// Run via `make bench-kernel`.
func BenchmarkKernelVsExact(b *testing.B) {
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"tree/n=500", graph.RandomTree(500, rand.New(rand.NewSource(3)))},
		{"tree/n=2000", graph.RandomTree(2000, rand.New(rand.NewSource(3)))},
		{"wtree/n=500", graph.WithRandomWeights(graph.RandomTree(500, rand.New(rand.NewSource(3))), 16, rand.New(rand.NewSource(103)))},
		{"wtree/n=2000", graph.WithRandomWeights(graph.RandomTree(2000, rand.New(rand.NewSource(3))), 16, rand.New(rand.NewSource(103)))},
		{"caterpillar/n=1000", graph.Caterpillar(250, 3)},
		{"gnp1.5/n=500", graph.ConnectedGNP(500, 1.5/500, rand.New(rand.NewSource(7)))},
	}
	for _, inst := range instances {
		sq := inst.g.Square()
		b.Run(fmt.Sprintf("kernel/%s", inst.name), func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				_, rep = NewSolver(Config{}).VertexCover(sq)
			}
			b.ReportMetric(float64(rep.KernelN), "kernelN")
			b.ReportMetric(float64(rep.SearchNodes), "nodes")
			b.ReportMetric(float64(sq.N()), "inputN")
		})
		b.Run(fmt.Sprintf("raw-exact/%s", inst.name), func(b *testing.B) {
			exhausted := 0
			var nodes int64
			for i := 0; i < b.N; i++ {
				var err error
				if _, nodes, err = exact.VertexCoverBounded(sq, 25_000, nil); err != nil {
					exhausted++
				}
			}
			b.ReportMetric(float64(exhausted)/float64(b.N), "exhausted/op")
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// kernelizeOnlyInstance is the square of a weighted random 2000-vertex
// tree: the reduction rules' benchmark and allocation-guard instance.
func kernelizeOnlyInstance() *graph.Graph {
	g := graph.WithRandomWeights(graph.RandomTree(2000, rand.New(rand.NewSource(3))), 16, rand.New(rand.NewSource(103)))
	return g.Square()
}

// BenchmarkKernelizeOnly isolates the reduction rules (no search): the cost
// a leader pays before any branching happens.
func BenchmarkKernelizeOnly(b *testing.B) {
	sq := kernelizeOnlyInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernelizeVC(sq, nil)
		_ = k.offset
	}
}

// TestKernelizeVCAllocsBounded pins the rules' reuse contract: kernelizeVC
// builds its dense working rows once and then edits and tests them in place,
// so its total allocation stays under 2.5 dense row tables
// (2.5 · n · ⌈n/64⌉ · 8 bytes) — the table itself plus the LP network and
// bookkeeping, with no per-check row copies.
func TestKernelizeVCAllocsBounded(t *testing.T) {
	sq := kernelizeOnlyInstance()
	n := sq.N()
	table := float64(n * ((n + 63) / 64) * 8)
	kernelizeVC(sq, nil) // warm up lazily built graph state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kernelizeVC(sq, nil)
	runtime.ReadMemStats(&after)
	if tables := float64(after.TotalAlloc-before.TotalAlloc) / table; tables > 2.5 {
		t.Errorf("kernelizeVC on n=%d allocated %.2f dense row tables, want < 2.5", n, tables)
	}
}
