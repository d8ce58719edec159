package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// Tests for the change-only wire rule of the floods and elections: a node
// stays silent when its neighbors can infer the value, and every node still
// ends with the collective's answer. The hop-maximum tests also pin the
// exact traffic the rule allows, so a flood that resends a known value
// fails them.

// hopMaxReference computes every node's maximum over its closed hops-ball
// by BFS, and the number of messages the change-only flood sends: in slice
// t < hops, a node broadcasts to its neighbors exactly when its running
// maximum (the maximum over its closed t-ball) is positive at t = 0 or rose
// at slice t.
func hopMaxReference(g *graph.Graph, vals []int64, hops int) (maxima []int64, msgs int64) {
	n := g.N()
	maxima = make([]int64, n)
	for v := range n {
		dist, _ := g.BFS(v)
		for u, d := range dist {
			if d >= 0 && d <= hops && vals[u] > maxima[v] {
				maxima[v] = vals[u]
			}
		}
	}
	prev := make([]int64, n) // the value a node has sent so far: 0 before slice 0
	cur := append([]int64(nil), vals...)
	for range hops {
		next := append([]int64(nil), cur...)
		for v := range n {
			if cur[v] > prev[v] {
				msgs += int64(g.Degree(v))
			}
			for _, u := range g.Adj(v) {
				next[v] = max(next[v], cur[u])
			}
		}
		prev, cur = cur, next
	}
	return maxima, msgs
}

// hopStage runs one StepHopMax as a congest.Skipper: it promises the
// flood's idle slices, so the engine jumps over them. steps counts Step
// calls.
type hopStage struct {
	s     StepHopMax
	steps *atomic.Int64
}

func (p *hopStage) Step(nd *congest.Node) (bool, error) {
	p.steps.Add(1)
	if p.s.Step(nd) {
		return true, nil
	}
	nd.Idle(p.s.Idle())
	return false, nil
}

func (p *hopStage) Skip(_ *congest.Node, k int) { p.s.Skip(k) }
func (p *hopStage) Output() int64               { return p.s.Max() }

// steppedProgram hides a program's Skip method, so the engine steps it in
// every round: the reference run of a skip differential.
type steppedProgram[T any] struct{ congest.StepProgram[T] }

// hopRun is one k-hop maximum run: outputs, Stats and node steps.
type hopRun struct {
	out   []int64
	stats congest.Stats
	steps int64
}

// runHopMax runs a hops-deep StepHopMax of vals at the given width, with
// idle skips (shards ≥ 1) or stepped in every round (skip false).
func runHopMax(t testing.TB, g *graph.Graph, vals []int64, width, hops, shards int, skip bool) hopRun {
	t.Helper()
	var steps atomic.Int64
	res, err := congest.RunProgram(congest.Config{Graph: g, BandwidthFactor: 16, Shards: shards},
		func(nd *congest.Node) congest.StepProgram[int64] {
			p := &hopStage{steps: &steps}
			p.s.Restart(vals[nd.ID()], width, hops)
			if !skip {
				return steppedProgram[int64]{p}
			}
			return p
		})
	if err != nil {
		t.Fatal(err)
	}
	return hopRun{out: res.Outputs, stats: res.Stats, steps: steps.Load()}
}

// zeroHeavy draws n values, about 85 % of them 0 and the rest in 1..500.
func zeroHeavy(n int, rng *rand.Rand) []int64 {
	vals := make([]int64, n)
	for v := range vals {
		if rng.Intn(100) >= 85 {
			vals[v] = 1 + rng.Int63n(500)
		}
	}
	return vals
}

// checkSilentHopMax runs the k-hop maximum of vals stepped and skipping
// (shards 1 and 3) and holds all three to the centralized reference: the
// same maxima, hops rounds, and exactly the reference's messages.
func checkSilentHopMax(t testing.TB, g *graph.Graph, vals []int64, width, hops int) (stepped, skipped int64) {
	t.Helper()
	want, msgs := hopMaxReference(g, vals, hops)
	ref := runHopMax(t, g, vals, width, hops, 1, false)
	if !reflect.DeepEqual(ref.out, want) {
		t.Fatalf("hops=%d width=%d: maxima %v, reference %v (values %v)", hops, width, ref.out, want, vals)
	}
	if ref.stats.Rounds != hops || ref.stats.Messages != msgs {
		t.Fatalf("hops=%d width=%d: %d rounds and %d messages, want %d and %d (values %v)",
			hops, width, ref.stats.Rounds, ref.stats.Messages, hops, msgs, vals)
	}
	for _, shards := range []int{1, 3} {
		got := runHopMax(t, g, vals, width, hops, shards, true)
		if !reflect.DeepEqual(got.out, ref.out) || got.stats != ref.stats {
			t.Fatalf("hops=%d width=%d shards=%d: skipping run differs: %v %+v, stepped %v %+v",
				hops, width, shards, got.out, got.stats, ref.out, ref.stats)
		}
		skipped = got.steps
	}
	return ref.steps, skipped
}

// TestSilentHopMaxMatchesCentralized holds the change-only hop maximum to
// the centralized k-hop maximum on zero-heavy inputs, at hops 1–4 and at
// natural and fixed widths, and checks that its idle skips change nothing.
func TestSilentHopMaxMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := map[string]*graph.Graph{
		"path12":  graph.Path(12),
		"star10":  graph.Star(10),
		"grid5x6": graph.Grid(5, 6),
		"tree30":  graph.RandomTree(30, rng),
		"gnp40":   graph.ConnectedGNP(40, 0.08, rng),
		"gnp60":   graph.ConnectedGNP(60, 0.15, rng),
		"sparse":  graph.GNP(30, 0.04, rng), // disconnected, with isolated nodes
	}
	var stepped, skipped int64
	for name, g := range graphs {
		for trial := range 4 {
			vals := zeroHeavy(g.N(), rng)
			if trial == 0 {
				vals = make([]int64, g.N()) // all zero: nothing on the wire
			}
			for hops := 1; hops <= 4; hops++ {
				for _, width := range []int{0, 12} {
					t.Run(fmt.Sprintf("%s/trial=%d/hops=%d/width=%d", name, trial, hops, width), func(t *testing.T) {
						a, b := checkSilentHopMax(t, g, vals, width, hops)
						if trial == 0 && b != 2*int64(g.N()) {
							t.Fatalf("all-zero flood stepped %d node rounds, want 2n = %d (slice 0 and the closing slice)", b, 2*g.N())
						}
						stepped += a
						skipped += b
					})
				}
			}
		}
	}
	if skipped >= stepped {
		t.Fatalf("skipping runs stepped %d node rounds, stepped runs %d: nothing was skipped", skipped, stepped)
	}
}

// leaderGraphs are the random graphs the election tests run on, plus a
// path whose labels alternate low and high, so half its nodes are local
// minima and their floods compete.
func leaderGraphs(rng *rand.Rand) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{"single": graph.NewBuilder(1).Build()}
	for i, n := range []int{20, 35, 50, 80} {
		gs[fmt.Sprintf("gnp%d", n)] = graph.ConnectedGNP(n, 3.0/float64(n), rng)
		gs[fmt.Sprintf("dense%d", n)] = graph.ConnectedGNP(n, 0.3, rng)
		gs[fmt.Sprintf("tree%d-%d", n, i)] = graph.RandomTree(n, rng)
	}
	const n = 30
	b := graph.NewBuilder(n)
	order := make([]int, n) // path order: 15, 0, 16, 1, 17, 2, …
	for i := range order {
		if i%2 == 0 {
			order[i] = n/2 + i/2
		} else {
			order[i] = i / 2
		}
	}
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(order[i], order[i+1])
	}
	gs["zigzag30"] = b.Build()
	return gs
}

// leaderStage runs one StepMinIDLeader as a congest.Skipper.
type leaderStage struct {
	s     *StepMinIDLeader
	steps *atomic.Int64
}

func (p *leaderStage) Step(nd *congest.Node) (bool, error) {
	p.steps.Add(1)
	if p.s == nil {
		p.s = NewStepMinIDLeader(nd)
	}
	if p.s.Step(nd) {
		return true, nil
	}
	nd.Idle(p.s.Idle())
	return false, nil
}

func (p *leaderStage) Skip(_ *congest.Node, k int) { p.s.Skip(k) }
func (p *leaderStage) Output() int                 { return p.s.Leader() }

// diameter returns the largest BFS eccentricity of a connected graph.
func diameter(g *graph.Graph) int {
	d := 0
	for v := range g.N() {
		dist, _ := g.BFS(v)
		for _, x := range dist {
			d = max(d, x)
		}
	}
	return d
}

// TestMinIDLeaderElectsMinimumOnRandomGraphs requires the change-only
// election to elect the minimum id at every node in exactly n rounds,
// stepped and skipping, and the skipping run to step no slice after the
// flood died out: at most diameter + 2 flood slices plus the closing one.
func TestMinIDLeaderElectsMinimumOnRandomGraphs(t *testing.T) {
	for name, g := range leaderGraphs(rand.New(rand.NewSource(29))) {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			var runs []*congest.Result[int]
			var stepsOf []int64
			for _, skip := range []bool{false, true} {
				var steps atomic.Int64
				res, err := congest.RunProgram(congest.Config{Graph: g, Shards: 3},
					func(nd *congest.Node) congest.StepProgram[int] {
						p := &leaderStage{steps: &steps}
						if !skip {
							return steppedProgram[int]{p}
						}
						return p
					})
				if err != nil {
					t.Fatal(err)
				}
				for v, l := range res.Outputs {
					if l != 0 {
						t.Fatalf("skip=%v: node %d elected %d, want 0", skip, v, l)
					}
				}
				if res.Stats.Rounds != n {
					t.Fatalf("skip=%v: rounds = %d, want n = %d", skip, res.Stats.Rounds, n)
				}
				runs = append(runs, res)
				stepsOf = append(stepsOf, steps.Load())
			}
			if runs[0].Stats != runs[1].Stats {
				t.Fatalf("skipping run %+v, stepped run %+v", runs[1].Stats, runs[0].Stats)
			}
			if full := 2 * int64(g.M()) * int64(n); n > 1 && runs[0].Stats.Messages >= full {
				t.Fatalf("%d messages, as many as broadcasting in every slice (%d)", runs[0].Stats.Messages, full)
			}
			if limit := int64(n) * int64(min(diameter(g)+3, n+1)); stepsOf[1] > limit {
				t.Fatalf("skipping run stepped %d node rounds, want ≤ %d (diameter %d)", stepsOf[1], limit, diameter(g))
			}
		})
	}
}

// TestCliqueLeaderElectsMinimum requires the clique election to elect the
// minimum id at every node in one round, with only the locally minimal
// nodes flagging everyone.
func TestCliqueLeaderElectsMinimum(t *testing.T) {
	for name, g := range leaderGraphs(rand.New(rand.NewSource(31))) {
		t.Run(name, func(t *testing.T) {
			res, err := runStages(congest.Config{Graph: g, Model: congest.CongestedClique},
				func(nd *congest.Node) *stage[int] {
					s := NewStepCliqueLeader(nd)
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
			minima := 0
			for v := range g.N() {
				if adj := g.Adj(v); len(adj) == 0 || adj[0] > v {
					minima++
				}
			}
			if want := int64(minima) * int64(g.N()-1); res.Stats.Messages != want {
				t.Fatalf("%d messages, want %d (%d local minima × n−1)", res.Stats.Messages, want, minima)
			}
			if res.Stats.Rounds != 1 {
				t.Fatalf("rounds = %d, want 1", res.Stats.Rounds)
			}
		})
	}
}

// TestHopMaxIdleBeforeFirstStep pins Idle on a flood that has not stepped
// yet: a positive value is still to be sent in slice 0, a zero is not.
func TestHopMaxIdleBeforeFirstStep(t *testing.T) {
	if got := NewStepHopMax(5, 0, 3).Idle(); got != 0 {
		t.Fatalf("unsent positive value: Idle() = %d, want 0", got)
	}
	if got := NewStepHopMax(0, 0, 3).Idle(); got != 3 {
		t.Fatalf("zero value: Idle() = %d, want 3", got)
	}
}
