package primitives

import (
	"fmt"
	"math/rand"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return map[string]*graph.Graph{
		"single":      graph.NewBuilder(1).Build(),
		"edge":        graph.Path(2),
		"path10":      graph.Path(10),
		"cycle9":      graph.Cycle(9),
		"star12":      graph.Star(12),
		"grid4x5":     graph.Grid(4, 5),
		"gnp30":       graph.ConnectedGNP(30, 0.1, rng),
		"caterpillar": graph.Caterpillar(6, 2),
		"tree25":      graph.RandomTree(25, rng),
	}
}

// stage is a test StepProgram over one step primitive (or a chain of them):
// step advances it one slice, out reads its result once done.
type stage[T any] struct {
	step func(nd *congest.Node) bool
	out  func() T
}

func (s *stage[T]) Step(nd *congest.Node) (bool, error) { return s.step(nd), nil }
func (s *stage[T]) Output() T                           { return s.out() }

// then runs first and, in the slice it completes, starts the stage next
// builds from first's result — the composition contract of step.go.
func then[A, B any](first *stage[A], next func(nd *congest.Node, a A) *stage[B]) *stage[B] {
	var cur *stage[B]
	return &stage[B]{
		step: func(nd *congest.Node) bool {
			if cur == nil {
				if !first.step(nd) {
					return false
				}
				cur = next(nd, first.out())
			}
			return cur.step(nd)
		},
		out: func() B { return cur.out() },
	}
}

// bfsStage builds the BFS tree rooted at root.
func bfsStage(nd *congest.Node, root int) *stage[Tree] {
	s := NewStepBFSTree(nd, root)
	return &stage[Tree]{step: s.Step, out: s.Tree}
}

// onTree builds the BFS tree rooted at 0, then runs the stage next builds
// on it.
func onTree[T any](nd *congest.Node, next func(nd *congest.Node, t *Tree) *stage[T]) *stage[T] {
	return then(bfsStage(nd, 0), func(nd *congest.Node, t Tree) *stage[T] { return next(nd, &t) })
}

// runStages runs the per-node stage mk builds on every node.
func runStages[T any](cfg congest.Config, mk func(nd *congest.Node) *stage[T]) (*congest.Result[T], error) {
	return congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[T] { return mk(nd) })
}

func TestMinIDLeader(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[int] {
				s := NewStepMinIDLeader(nd)
				return &stage[int]{step: s.Step, out: s.Leader}
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range res.Outputs {
				if l != 0 {
					t.Fatalf("node %d elected %d, want 0", v, l)
				}
			}
			if res.Stats.Rounds != g.N() {
				t.Fatalf("rounds = %d, want n = %d", res.Stats.Rounds, g.N())
			}
		})
	}
}

func TestBFSTree(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			root := g.N() / 2
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[Tree] {
				return bfsStage(nd, root)
			})
			if err != nil {
				t.Fatal(err)
			}
			dist, _ := g.BFS(root)
			childCount := 0
			for v, tr := range res.Outputs {
				if tr.Depth != dist[v] {
					t.Fatalf("node %d: depth %d, want %d", v, tr.Depth, dist[v])
				}
				if v == root {
					if tr.Parent != -1 {
						t.Fatalf("root has parent %d", tr.Parent)
					}
				} else {
					if tr.Parent == -1 {
						t.Fatalf("node %d has no parent", v)
					}
					if !g.HasEdge(v, tr.Parent) {
						t.Fatalf("node %d: parent %d is not a neighbor", v, tr.Parent)
					}
					if dist[tr.Parent] != dist[v]-1 {
						t.Fatalf("node %d: parent depth mismatch", v)
					}
					// Child lists are consistent with parents.
					if !contains(res.Outputs[tr.Parent].Children, v) {
						t.Fatalf("node %d missing from its parent's child list", v)
					}
				}
				childCount += len(tr.Children)
			}
			if childCount != g.N()-1 {
				t.Fatalf("total children = %d, want %d", childCount, g.N()-1)
			}
		})
	}
}

func TestConvergecastSum(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[int64] {
				return onTree(nd, func(nd *congest.Node, tr *Tree) *stage[int64] {
					s := NewStepConvergecastSum(nd, tr, int64(nd.ID()+1))
					return &stage[int64]{step: s.Step, out: s.Sum}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			n := int64(g.N())
			want := n * (n + 1) / 2
			if res.Outputs[0] != want {
				t.Fatalf("root sum = %d, want %d", res.Outputs[0], want)
			}
			for v := 1; v < g.N(); v++ {
				if res.Outputs[v] != 0 {
					t.Fatalf("non-root %d returned %d", v, res.Outputs[v])
				}
			}
		})
	}
}

func TestBroadcastFromRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			// The value must fit the bandwidth budget even on tiny graphs
			// (n=2 ⇒ B=4 bits), as the primitive's contract requires.
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[int64] {
				return onTree(nd, func(nd *congest.Node, tr *Tree) *stage[int64] {
					s := NewStepBroadcastFromRoot(nd, tr, 13)
					return &stage[int64]{step: s.Step, out: s.Value}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, got := range res.Outputs {
				if got != 13 {
					t.Fatalf("node %d got %d", v, got)
				}
			}
		})
	}
}

// gatherStage gathers items at the BFS root 0.
func gatherStage(nd *congest.Node, items []congest.Message) *stage[[]congest.Message] {
	return onTree(nd, func(nd *congest.Node, tr *Tree) *stage[[]congest.Message] {
		s := NewStepGatherAtRoot(nd, tr, items)
		return &stage[[]congest.Message]{step: s.Step, out: s.Collected}
	})
}

func TestGatherAtRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[[]congest.Message] {
				// Every node contributes (id+1) items carrying its id.
				items := make([]congest.Message, nd.ID()+1)
				for i := range items {
					items[i] = congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N()))
				}
				return gatherStage(nd, items)
			})
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v < g.N(); v++ {
				if res.Outputs[v] != nil {
					t.Fatalf("non-root %d received items", v)
				}
			}
			n := g.N()
			if want := n * (n + 1) / 2; len(res.Outputs[0]) != want {
				t.Fatalf("root collected %d items, want %d", len(res.Outputs[0]), want)
			}
		})
	}
}

func TestGatherAtRootContentIntegrity(t *testing.T) {
	g := graph.ConnectedGNP(20, 0.15, rand.New(rand.NewSource(3)))
	res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[[]congest.Message] {
		return gatherStage(nd, []congest.Message{congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N()))})
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, m := range res.Outputs[0] {
		counts[m.A]++
	}
	for v := 0; v < g.N(); v++ {
		if counts[int64(v)] != 1 {
			t.Fatalf("item from node %d seen %d times", v, counts[int64(v)])
		}
	}
}

func TestGatherRoundsLinearInItems(t *testing.T) {
	// Lemma 2: gathering c items/node takes O(c·n) rounds. Measure total
	// rounds for c=1 vs c=4 on a fixed path and check growth is ≈ linear in
	// the total item count, not quadratic.
	rounds := func(c int) int {
		g := graph.Path(30)
		res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[[]congest.Message] {
			items := make([]congest.Message, c)
			for i := range items {
				items[i] = congest.Flag()
			}
			return gatherStage(nd, items)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	r1, r4 := rounds(1), rounds(4)
	// Fixed overhead (tree + convergecast + broadcast) is ~3n; the variable
	// part is the item count (30 vs 120). So r4 - r1 should be ≈ 90.
	if d := r4 - r1; d < 80 || d > 120 {
		t.Fatalf("r1=%d r4=%d: delta %d outside linear-pipelining range", r1, r4, d)
	}
}

// twoHopMax runs NewStepTwoHopMax with each node's value from vals.
func twoHopMax(g *graph.Graph, vals func(v int) int64) (*congest.Result[int64], error) {
	return runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[int64] {
		s := NewStepTwoHopMax(vals(nd.ID()))
		return &stage[int64]{step: s.Step, out: s.Max}
	})
}

func TestTwoHopMax(t *testing.T) {
	res, err := twoHopMax(graph.Path(7), func(v int) int64 { return int64(v) })
	if err != nil {
		t.Fatal(err)
	}
	// On a path, max over closed 2-hop ball of i is min(i+2, 6).
	for v, got := range res.Outputs {
		if want := int64(min(v+2, 6)); got != want {
			t.Fatalf("node %d: two-hop max %d, want %d", v, got, want)
		}
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestTwoHopMaxMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g := graph.ConnectedGNP(25, 0.12, rng)
		vals := make([]int64, g.N())
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		res, err := twoHopMax(g, func(v int) int64 { return vals[v] })
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			ball := g.TwoHopNeighborhood(v)
			want := vals[v]
			ball.ForEach(func(u int) bool {
				if vals[u] > want {
					want = vals[u]
				}
				return true
			})
			if res.Outputs[v] != want {
				t.Fatalf("node %d: %d, want %d", v, res.Outputs[v], want)
			}
		}
	}
}

func TestFloodItemsFromRoot(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := runStages(congest.Config{Graph: g}, func(nd *congest.Node) *stage[[]congest.Message] {
				var items []congest.Message
				if nd.ID() == 0 {
					// Root floods three ordered values.
					for _, v := range []int64{7, 3, 11} {
						items = append(items, congest.NewIntWidth(v, 4))
					}
				}
				return onTree(nd, func(nd *congest.Node, tr *Tree) *stage[[]congest.Message] {
					s := NewStepFloodItemsFromRoot(nd, tr, items)
					return &stage[[]congest.Message]{step: s.Step, out: s.Items}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, got := range res.Outputs {
				vals := make([]int64, 0, len(got))
				for _, m := range got {
					vals = append(vals, m.A)
				}
				if fmt.Sprint(vals) != "[7 3 11]" {
					t.Fatalf("node %d received %v (order must be preserved)", v, vals)
				}
			}
		})
	}
}

func TestGatherRejectsOversizedItems(t *testing.T) {
	// An item beyond the bandwidth budget must abort the run with an error
	// (via the engine's panic-recovery path), not hang or truncate.
	g := graph.Path(3)
	_, err := runStages(congest.Config{Graph: g, BandwidthFactor: 1}, func(nd *congest.Node) *stage[[]congest.Message] {
		var items []congest.Message
		if nd.ID() == 2 {
			items = []congest.Message{congest.NewIntWidth(123456, 30)}
		}
		return gatherStage(nd, items)
	})
	if err == nil {
		t.Fatal("oversized gather item accepted")
	}
}

func TestPrimitivesWorkInCliqueModel(t *testing.T) {
	// The primitives speak strictly over G-edges, so their semantics must
	// be identical under the CONGESTED CLIQUE model.
	g := graph.Grid(3, 4)
	var stats []congest.Stats
	for _, model := range []congest.Model{congest.CONGEST, congest.CongestedClique} {
		res, err := runStages(congest.Config{Graph: g, Model: model}, func(nd *congest.Node) *stage[int64] {
			return then(bfsStage(nd, 0), func(nd *congest.Node, tr Tree) *stage[int64] {
				sum := NewStepConvergecastSum(nd, &tr, int64(nd.ID()))
				return then(&stage[int64]{step: sum.Step, out: sum.Sum}, func(nd *congest.Node, total int64) *stage[int64] {
					s := NewStepBroadcastFromRoot(nd, &tr, total)
					return &stage[int64]{step: s.Step, out: s.Value}
				})
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		n := int64(g.N())
		want := n * (n - 1) / 2
		for v, got := range res.Outputs {
			if got != want {
				t.Fatalf("%v: node %d got %d, want %d", model, v, got, want)
			}
		}
		stats = append(stats, res.Stats)
	}
	if stats[0] != stats[1] {
		t.Fatalf("G-edge traffic differs across models:\nCONGEST: %+v\nclique:  %+v", stats[0], stats[1])
	}
}
