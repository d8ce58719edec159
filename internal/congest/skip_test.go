package congest

import (
	"bytes"
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
// and a stepped run: the outcome and the whole trace, both collected and as
// the ordered JSONL event stream.
type wakeRun struct {
	outputs      []int64
	stats        Stats
	err          string
	rounds       []obs.RoundEvent
	begins, ends []obs.Span
	end          obs.RunEnd
	stream       string
}

// markProg is wakeProg with span marks in the rounds it promises idle,
// which its Skip makes at their offsets (SpanBeginAt/SpanEndAt). In every
// third round the even nodes open and close ("tick", round), so several
// nodes mark one key in one round, begin and end alike; nodes whose id is a
// multiple of 3 hold ("hold", round/5) open from round ≡ 1 to round ≡ 4
// (mod 5); and each node opens ("eve", round) in the round before each of
// its wakes, the last round of a skip that ends at that wake, and closes
// it at the wake.
type markProg struct{ wakeProg }

// marks makes node id's marks of round r through mark.
func (p *markProg) marks(id, r int, mark func(end bool, name string, index int)) {
	if r%3 == 0 && id%2 == 0 {
		mark(false, "tick", r)
		mark(true, "tick", r)
	}
	if id%3 == 0 && r%5 == 1 {
		mark(false, "hold", r/5)
	}
	if id%3 == 0 && r%5 == 4 {
		mark(true, "hold", r/5)
	}
	if r%p.period == 0 {
		mark(true, "eve", r-1)
	}
	if (r+1)%p.period == 0 {
		mark(false, "eve", r)
	}
}

func (p *markProg) Step(nd *Node) (bool, error) {
	r := p.r
	done, err := p.wakeProg.Step(nd)
	if err == nil && !done {
		p.marks(nd.ID(), r, func(end bool, name string, index int) {
			if end {
				nd.SpanEnd(name, index)
			} else {
				nd.SpanBegin(name, index)
			}
		})
	}
	return done, err
}

func (p *markProg) Skip(nd *Node, k int) {
	for j := 1; j <= k; j++ {
		p.marks(nd.ID(), p.r+j-1, func(end bool, name string, index int) {
			if end {
				nd.SpanEndAt(j, name, index)
			} else {
				nd.SpanBeginAt(j, name, index)
			}
		})
	}
	p.wakeProg.Skip(nd, k)
}

// runWake runs wakeProg, or markProg when marked is set, with the given
// periods and ends (indexed by id modulo their length) and reports the run
// and its node-step count.
func runWake(g *graph.Graph, shards, maxRounds int, periods, ends []int, skip, marked bool) (wakeRun, int64) {
	col := &obs.Collector{CollectRounds: true}
	var stream bytes.Buffer
	jw := obs.NewJSONLWriter(&stream)
	var steps atomic.Int64
	cfg := Config{Graph: g, Shards: shards, Seed: 9, MaxRounds: maxRounds, Tracer: obs.Multi{col, jw}}
	res, err := RunProgram(cfg, func(nd *Node) StepProgram[int64] {
		w := wakeProg{period: periods[nd.ID()%len(periods)], end: ends[nd.ID()%len(ends)], steps: &steps}
		var p StepProgram[int64] = &w
		if marked {
			p = &markProg{w}
		}
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
	if err := jw.Close(); err != nil {
		run.err += err.Error()
	}
	run.stream = stream.String()
	return run, steps.Load()
}

// TestIdleSkipMatchesStepped is the engine-level skip differential: idle
// stretches of unequal length (periods 5, 7 and 12, nodes finishing at
// different rounds) must give the same outputs, Stats, Round events and
// span marks as stepping every round, at shards 1 and 3, while stepping
// fewer node rounds.
func TestIdleSkipMatchesStepped(t *testing.T) {
	checkWakeDifferential(t, false)
}

// TestIdleSkipMarksMatchStepped is the same differential for marks made
// inside Skip: markProg's marks at offsets — several nodes in one round,
// begin and end of one key in one round, spans open across a skip, a mark
// in a skip's last round — must give the same span events, in the same
// order and with the same rounds and message snapshots, and the same Round
// events between them, as the Steps that make them in the stepped run.
func TestIdleSkipMarksMatchStepped(t *testing.T) {
	checkWakeDifferential(t, true)
}

func checkWakeDifferential(t *testing.T, marked bool) {
	g := graph.ConnectedGNP(30, 0.15, newRand(4))
	periods, ends := []int{5, 7, 12}, []int{61, 80, 97, 80}
	want, wantSteps := runWake(g, 1, 0, periods, ends, false, marked)
	if want.err != "" {
		t.Fatal(want.err)
	}
	if len(want.rounds) != want.stats.Rounds {
		t.Fatalf("stepped run traced %d rounds, counted %d", len(want.rounds), want.stats.Rounds)
	}
	if marked && len(want.begins) < 3*len(want.rounds)/2 {
		t.Fatalf("stepped run made %d span begins over %d rounds: the marks are missing", len(want.begins), len(want.rounds))
	}
	for _, shards := range []int{1, 3} {
		got, steps := runWake(g, shards, 0, periods, ends, true, marked)
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
	for _, marked := range []bool{false, true} {
		want, wantSteps := runWake(g, 1, limit, periods, ends, false, marked)
		if want.err != fmt.Sprintf("%v (%d)", ErrMaxRounds, limit) {
			t.Fatalf("stepped run: err %q, want ErrMaxRounds", want.err)
		}
		if got := len(want.rounds); got != limit+1 {
			t.Fatalf("stepped run traced %d rounds, want %d", got, limit+1)
		}
		for _, shards := range []int{1, 3} {
			got, steps := runWake(g, shards, limit, periods, ends, true, marked)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("marked=%v shards=%d: skipping run differs from the stepped run:\n got %q, %d rounds, %d begins, end %+v\nwant %q, %d rounds, %d begins, end %+v",
					marked, shards, got.err, len(got.rounds), len(got.begins), got.end, want.err, len(want.rounds), len(want.begins), want.end)
			}
			if steps >= wantSteps {
				t.Fatalf("marked=%v shards=%d: skipping run stepped %d node rounds, the stepped run %d", marked, shards, steps, wantSteps)
			}
		}
	}
}

// offsetProg marks a span at offset at of every skip (at ≤ 0 and at > k
// are out of range), or, with inStep, calls SpanBeginAt from Step.
type offsetProg struct {
	wakeProg
	at     func(k int) int
	inStep bool
}

func (p *offsetProg) Step(nd *Node) (bool, error) {
	if p.inStep && p.r == 0 {
		nd.SpanBeginAt(1, "misplaced", 0)
	}
	return p.wakeProg.Step(nd)
}

func (p *offsetProg) Skip(nd *Node, k int) {
	if nd.ID() == 2 {
		nd.SpanBeginAt(p.at(k), "misplaced", 0)
	}
	p.wakeProg.Skip(nd, k)
}

// TestSpanMarkAtMisuseFails: a mark at an offset outside 1..k of the skip in
// progress, or made outside Skip altogether, fails the run with an error
// naming the node, at every shard count and with or without a tracer.
func TestSpanMarkAtMisuseFails(t *testing.T) {
	g := graph.Cycle(8)
	cases := map[string]struct {
		at     func(k int) int
		inStep bool
		want   string
	}{
		"zero":    {at: func(int) int { return 0 }, want: "congest: node 2: span mark at offset 0 outside the skip's 1..8"},
		"past k":  {at: func(k int) int { return k + 1 }, want: "congest: node 2: span mark at offset 9 outside the skip's 1..8"},
		"in Step": {at: func(k int) int { return 1 }, inStep: true, want: "congest: node 0: span mark at an offset outside Skip"},
	}
	for name, c := range cases {
		for _, shards := range []int{1, 3} {
			for _, tracer := range []obs.Tracer{nil, &obs.Collector{}} {
				_, err := RunProgram(Config{Graph: g, Shards: shards, Tracer: tracer}, func(nd *Node) StepProgram[int64] {
					return &offsetProg{wakeProg: wakeProg{period: 10, end: 40}, at: c.at, inStep: c.inStep}
				})
				if err == nil || err.Error() != c.want {
					t.Fatalf("%s, shards=%d, tracer %v: err %v, want %q", name, shards, tracer != nil, err, c.want)
				}
			}
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
