package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// stepped hides a program's Skip method: its method set is StepProgram's,
// so the engine cannot skip and steps the program in every round. It
// makes the reference run of the skip differentials.
type stepped struct{ congest.StepProgram[nodeOut] }

// counted forwards Step, Output and Skip, counting Step calls, so a test
// can tell that the skipping run really skipped.
type counted struct {
	congest.StepProgram[nodeOut]
	steps *stepCounts
}

func (c counted) Step(nd *congest.Node) (bool, error) {
	c.steps.add(nd.Round())
	return c.StepProgram.Step(nd)
}

func (c counted) Skip(nd *congest.Node, k int) { c.StepProgram.(congest.Skipper).Skip(nd, k) }

// stepCounts counts node steps, in all and per round (shard workers step
// nodes concurrently, hence the lock).
type stepCounts struct {
	mu      sync.Mutex
	total   int64
	byRound map[int]int64
}

func (c *stepCounts) add(round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byRound == nil {
		c.byRound = make(map[int]int64)
	}
	c.total++
	c.byRound[round]++
}

// within returns the node steps of rounds [lo, hi).
func (c *stepCounts) within(lo, hi int) int64 {
	var sum int64
	for r, k := range c.byRound {
		if r >= lo && r < hi {
			sum += k
		}
	}
	return sum
}

// countingRunner is congest.RunProgram with every program wrapped in
// counted, and in stepped too when hideSkip is set.
func countingRunner(steps *stepCounts, hideSkip bool) nodeRunner {
	return func(cfg congest.Config, newProgram func(*congest.Node) congest.StepProgram[nodeOut]) (*congest.Result[nodeOut], error) {
		return congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[nodeOut] {
			c := counted{newProgram(nd), steps}
			if hideSkip {
				return stepped{c}
			}
			return c
		})
	}
}

// skipRun is everything a skip differential compares: the result, the
// engine's Stats, and the full trace — every Round event, every span mark
// with its round and message snapshot, the span summary, the per-span
// message totals and the run-end record.
type skipRun struct {
	solution             string
	phaseI, fallback     int
	stats                congest.Stats
	rounds               []obs.RoundEvent
	begins, ends         []obs.Span
	summary              string
	spanMsgs             map[string]int64
	end                  obs.RunEnd
	leaderPath           string
	leaderN, leaderNodes int
}

func collectSkipRun(t *testing.T, res *Result, err error, col *obs.Collector) skipRun {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	_, end, ok := col.Run()
	if !ok {
		t.Fatal("trace has no run-start or run-end record")
	}
	out := skipRun{
		solution: res.Solution.String(), phaseI: res.PhaseISize, fallback: res.FallbackJoins,
		stats: res.Stats, rounds: col.RoundEvents(), summary: col.SpanSummary(),
		spanMsgs: col.SpanMessages(), end: end,
	}
	out.begins, out.ends = col.SpanMarks()
	if rep := res.LeaderSolve; rep != nil {
		out.leaderPath, out.leaderN, out.leaderNodes = rep.Path, rep.KernelN, int(rep.SearchNodes)
	}
	return out
}

// checkSkipDifferential runs one algorithm three ways — stepped in every
// round, and skipping at shards 1 and 3 — and requires identical results,
// Stats and traces. It also requires the skipping runs to step fewer node
// rounds than the stepped one, so the differential cannot pass vacuously,
// and at most half as many within each of the named spans (index 0), so a
// stage that should go quiet cannot silently stop being skipped.
func checkSkipDifferential(t *testing.T, run func(o Options, run nodeRunner) (*Result, error), quiet ...string) {
	t.Helper()
	col := &obs.Collector{CollectRounds: true}
	var refSteps stepCounts
	res, err := run(Options{Seed: 5, Tracer: col}, countingRunner(&refSteps, true))
	want := collectSkipRun(t, res, err, col)
	if len(want.rounds) != want.stats.Rounds {
		t.Fatalf("stepped run traced %d rounds, counted %d", len(want.rounds), want.stats.Rounds)
	}
	for _, shards := range []int{1, 3} {
		col := &obs.Collector{CollectRounds: true}
		var steps stepCounts
		res, err := run(Options{Seed: 5, Shards: shards, Tracer: col}, countingRunner(&steps, false))
		got := collectSkipRun(t, res, err, col)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: skipping run differs from the stepped run:\n got %s\nwant %s", shards, describeSkipRun(got), describeSkipRun(want))
		}
		if steps.total >= refSteps.total {
			t.Fatalf("shards=%d: skipping run stepped %d node rounds, the stepped run %d: nothing was skipped", shards, steps.total, refSteps.total)
		}
		for _, name := range quiet {
			lo, hi := spanRounds(t, want, name)
			gotIn, refIn := steps.within(lo, hi), refSteps.within(lo, hi)
			if 2*gotIn > refIn {
				t.Fatalf("shards=%d: %s (rounds %d–%d): skipping run stepped %d node rounds, the stepped run %d: want at most half", shards, name, lo, hi, gotIn, refIn)
			}
			t.Logf("shards=%d: %s: %d of %d node steps", shards, name, gotIn, refIn)
		}
		t.Logf("shards=%d: %d of %d node steps (%d rounds)", shards, steps.total, refSteps.total, want.stats.Rounds)
	}
}

// spanRounds returns the rounds [begin, end) of span (name, 0) in a run's
// trace.
func spanRounds(t *testing.T, r skipRun, name string) (lo, hi int) {
	t.Helper()
	lo, hi = -1, -1
	for _, s := range r.begins {
		if s.Name == name && s.Index == 0 {
			lo = s.Round
		}
	}
	for _, s := range r.ends {
		if s.Name == name && s.Index == 0 {
			hi = s.Round
		}
	}
	if lo < 0 || hi < lo {
		t.Fatalf("span %s: no begin/end pair in the trace (begin %d, end %d)", name, lo, hi)
	}
	return lo, hi
}

// describeSkipRun summarizes a run for a failure message.
func describeSkipRun(r skipRun) string {
	return fmt.Sprintf("solution %s phaseI %d fallback %d stats %+v spans %q rounds traced %d end %+v",
		r.solution, r.phaseI, r.fallback, r.stats, r.summary, len(r.rounds), r.end)
}

// skipInstances are the graphs of the algorithm-level skip differentials:
// a sparse random graph (small diameter, long silent tree stages) and a
// caterpillar (long diameter, so the tree stages stay busy longer).
func skipInstances() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(41))
	return map[string]*graph.Graph{
		"gnp40":       graph.ConnectedGNP(40, 6.0/40, rng),
		"caterpillar": graph.Caterpillar(8, 2),
	}
}

// TestMDSCongestSkipMatchesStepped holds Theorem 28's idle skips to the
// run that steps every round, at r = 1 to 4.
func TestMDSCongestSkipMatchesStepped(t *testing.T) {
	for name, g := range skipInstances() {
		for r := 1; r <= 4; r++ {
			t.Run(fmt.Sprintf("%s/r=%d", name, r), func(t *testing.T) {
				checkSkipDifferential(t, func(o Options, run nodeRunner) (*Result, error) {
					o.Power = r
					return approxMDSCongest(g, &MDSOptions{Options: o}, run)
				})
			})
		}
	}
}

// TestLeaderPipelineSkipMatchesStepped holds the idle skips of the Phase-II
// leader pipeline to the stepped run, for every program that embeds it, at
// r = 2 (the F-edge gather) and r = 3 (the certificate gather). The
// election floods only news, so once the minimum id has reached every node
// the rest of its n slices is skipped.
func TestLeaderPipelineSkipMatchesStepped(t *testing.T) {
	algs := map[string]func(g *graph.Graph, o Options, run nodeRunner) (*Result, error){
		"mvc-congest": func(g *graph.Graph, o Options, run nodeRunner) (*Result, error) {
			return approxMVCCongest(g, 0.5, &o, run)
		},
		"mvc-congest-rand": func(g *graph.Graph, o Options, run nodeRunner) (*Result, error) {
			return approxMVCCongestRandomized(g, 0.5, &o, run)
		},
		"mwvc-congest": func(g *graph.Graph, o Options, run nodeRunner) (*Result, error) {
			return approxMWVCCongest(graph.WithRandomWeights(g, 20, rand.New(rand.NewSource(3))), 0.5, &o, run)
		},
	}
	for alg, solve := range algs {
		for name, g := range skipInstances() {
			for r := 2; r <= 3; r++ {
				t.Run(fmt.Sprintf("%s/%s/r=%d", alg, name, r), func(t *testing.T) {
					checkSkipDifferential(t, func(o Options, run nodeRunner) (*Result, error) {
						o.Power = r
						return solve(g, o, run)
					}, "leader-elect")
				})
			}
		}
	}
}
