package congest

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// wakeProg wakes every period rounds — it draws a random value, broadcasts
// it inside a span, and records what arrives — and promises the rounds
// between two wakes as idle. Nodes get different periods, so the promises
// of one round have unequal lengths and the engine must skip by the
// shortest. The program keeps its own round counter, advanced by Step and
// by Skip, and fails when the counter disagrees with the engine's round,
// so a skip of the wrong length cannot go unnoticed.
type wakeProg struct {
	period, end int
	r           int
	sum         int64
	steps       *atomic.Int64
}

func (p *wakeProg) Step(nd *Node) (bool, error) {
	if p.steps != nil {
		p.steps.Add(1)
	}
	if p.r != nd.Round() {
		return false, fmt.Errorf("program counter at round %d, engine at round %d", p.r, nd.Round())
	}
	for _, in := range nd.Recv() {
		p.sum += int64(p.r) * in.Msg.A
	}
	if p.r == p.end {
		return true, nil
	}
	if p.r%p.period == 0 {
		nd.SpanBegin("wake", p.r)
		nd.BroadcastNeighbors(NewIntWidth(nd.Rand().Int63n(1<<8), 9))
		nd.SpanEnd("wake", p.r)
	}
	next := min((p.r/p.period+1)*p.period, p.end)
	nd.Idle(next - p.r - 1)
	p.r++
	return false, nil
}

func (p *wakeProg) Skip(_ *Node, k int) { p.r += k }

func (p *wakeProg) Output() int64 { return p.sum }

// steppedWake hides wakeProg's Skip, so the engine steps it every round.
type steppedWake struct{ StepProgram[int64] }

// wakeRun is what the idle-skip differentials compare between a skipping
// and a stepped run: the outcome and the whole trace.
type wakeRun struct {
	outputs      []int64
	stats        Stats
	err          string
	rounds       []obs.RoundEvent
	begins, ends []obs.Span
	end          obs.RunEnd
}

// runWake runs wakeProg with the given periods and ends (indexed by id
// modulo their length) and reports the run and its node-step count.
func runWake(g *graph.Graph, shards, maxRounds int, periods, ends []int, skip bool) (wakeRun, int64) {
	col := &obs.Collector{CollectRounds: true}
	var steps atomic.Int64
	cfg := Config{Graph: g, Shards: shards, Seed: 9, MaxRounds: maxRounds, Tracer: col}
	res, err := RunProgram(cfg, func(nd *Node) StepProgram[int64] {
		p := &wakeProg{period: periods[nd.ID()%len(periods)], end: ends[nd.ID()%len(ends)], steps: &steps}
		if skip {
			return p
		}
		return steppedWake{p}
	})
	var run wakeRun
	if err != nil {
		run.err = err.Error()
	} else {
		run.outputs, run.stats = res.Outputs, res.Stats
	}
	run.rounds = col.RoundEvents()
	run.begins, run.ends = col.SpanMarks()
	_, run.end, _ = col.Run()
	return run, steps.Load()
}

// TestIdleSkipMatchesStepped is the engine-level skip differential: idle
// stretches of unequal length (periods 5, 7 and 12, nodes finishing at
// different rounds) must give the same outputs, Stats, Round events and
// span marks as stepping every round, at shards 1 and 3, while stepping
// fewer node rounds.
func TestIdleSkipMatchesStepped(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.15, newRand(4))
	periods, ends := []int{5, 7, 12}, []int{61, 80, 97, 80}
	want, wantSteps := runWake(g, 1, 0, periods, ends, false)
	if want.err != "" {
		t.Fatal(want.err)
	}
	if len(want.rounds) != want.stats.Rounds {
		t.Fatalf("stepped run traced %d rounds, counted %d", len(want.rounds), want.stats.Rounds)
	}
	for _, shards := range []int{1, 3} {
		got, steps := runWake(g, shards, 0, periods, ends, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: skipping run differs from the stepped run:\n got %+v\nwant %+v", shards, got.stats, want.stats)
		}
		if steps >= wantSteps {
			t.Fatalf("shards=%d: skipping run stepped %d node rounds, the stepped run %d", shards, steps, wantSteps)
		}
	}
}

// TestIdleSkipStopsAtMaxRounds: when the round limit falls inside an idle
// stretch, the skip is cut short so the run aborts at the same round, with
// the same error, Stats and Round events, as the stepped run.
func TestIdleSkipStopsAtMaxRounds(t *testing.T) {
	g := graph.Cycle(12)
	periods, ends := []int{20}, []int{1000}
	const limit = 27 // inside the idle stretch 21…39
	want, wantSteps := runWake(g, 1, limit, periods, ends, false)
	if want.err != fmt.Sprintf("%v (%d)", ErrMaxRounds, limit) {
		t.Fatalf("stepped run: err %q, want ErrMaxRounds", want.err)
	}
	if got := len(want.rounds); got != limit+1 {
		t.Fatalf("stepped run traced %d rounds, want %d", got, limit+1)
	}
	for _, shards := range []int{1, 3} {
		got, steps := runWake(g, shards, limit, periods, ends, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: skipping run differs from the stepped run:\n got %q, %d rounds, end %+v\nwant %q, %d rounds, end %+v",
				shards, got.err, len(got.rounds), got.end, want.err, len(want.rounds), want.end)
		}
		if steps >= wantSteps {
			t.Fatalf("shards=%d: skipping run stepped %d node rounds, the stepped run %d", shards, steps, wantSteps)
		}
	}
}

// TestIdleSkipAllocsBounded: skipping allocates nothing, so a run whose
// nodes wake every 50 rounds allocates the same over 2 000 rounds as over
// 200, up to a small constant.
func TestIdleSkipAllocsBounded(t *testing.T) {
	g := graph.Cycle(64)
	run := func(end int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := RunProgram(Config{Graph: g}, func(*Node) StepProgram[int64] {
				return &wakeProg{period: 50, end: end}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a200, a2000 := run(200), run(2000)
	t.Logf("allocations per run: %.0f over 200 rounds, %.0f over 2000", a200, a2000)
	if a2000 > a200+4 {
		t.Fatalf("2000 rounds allocate %.0f, 200 rounds %.0f: skipping allocates", a2000, a200)
	}
}
