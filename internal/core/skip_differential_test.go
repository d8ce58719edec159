package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
	c.steps.add(nd.ID(), nd.Round())
	done, err := c.StepProgram.Step(nd)
	if p, ok := c.StepProgram.(*mdsCongestProgram); ok && !done && err == nil {
		if k := p.promise(nd.Round()); k > p.idle() {
			c.steps.promised(nd.ID(), nd.Round()+k)
		}
	}
	return done, err
}

func (c counted) Skip(nd *congest.Node, k int) {
	if p, ok := c.StepProgram.(*mdsCongestProgram); ok && k >= p.phaseLen() {
		c.steps.jumped()
	}
	c.StepProgram.(congest.Skipper).Skip(nd, k)
}

// stepCounts counts node steps, in all and per round (shard workers step
// nodes concurrently, hence the lock). For mds-congest it also counts the
// jumps of Skip over a whole phase or more, and the promises to the last
// phase that the engine refused: the node was stepped again inside the
// rounds it had promised, because some other node still had work to do.
type stepCounts struct {
	mu      sync.Mutex
	total   int64
	byRound map[int]int64

	promisedTo    map[int]int // node → last round of its long promise
	jumps, refuse int
}

func (c *stepCounts) add(id, round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byRound == nil {
		c.byRound = make(map[int]int64)
	}
	c.total++
	c.byRound[round]++
	if end, ok := c.promisedTo[id]; ok {
		if round <= end {
			c.refuse++
		}
		delete(c.promisedTo, id)
	}
}

func (c *stepCounts) promised(id, end int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.promisedTo == nil {
		c.promisedTo = make(map[int]int)
	}
	c.promisedTo[id] = end
}

func (c *stepCounts) jumped() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jumps++
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

// skipRun is everything a skip differential compares: the result or the
// error, the engine's Stats, and the full trace — every Round event, every
// span mark with its round and message snapshot, the span summary, the
// per-span message totals, the run-end record, and the whole engine event
// stream in order.
type skipRun struct {
	err                  string
	solution             string
	phaseI, fallback     int
	stats                congest.Stats
	rounds               []obs.RoundEvent
	begins, ends         []obs.Span
	summary              string
	spanMsgs             map[string]int64
	end                  obs.RunEnd
	stream               string
	leaderPath           string
	leaderN, leaderNodes int
}

// skipTracer collects a run's trace and records its event stream.
type skipTracer struct {
	col    *obs.Collector
	stream *bytes.Buffer
	jw     *obs.JSONLWriter
}

func newSkipTracer() skipTracer {
	var buf bytes.Buffer
	return skipTracer{col: &obs.Collector{CollectRounds: true}, stream: &buf, jw: obs.NewJSONLWriter(&buf)}
}

func (st skipTracer) tracer() obs.Tracer { return obs.Multi{st.col, st.jw} }

// collectSkipRun gathers a run's skipRun; a run error is recorded, not
// fatal, when wantErr is set.
func collectSkipRun(t *testing.T, res *Result, err error, st skipTracer, wantErr bool) skipRun {
	t.Helper()
	var out skipRun
	if err != nil {
		if !wantErr {
			t.Fatal(err)
		}
		out.err = err.Error()
	} else {
		out.solution, out.phaseI, out.fallback, out.stats = res.Solution.String(), res.PhaseISize, res.FallbackJoins, res.Stats
		if rep := res.LeaderSolve; rep != nil {
			out.leaderPath, out.leaderN, out.leaderNodes = rep.Path, rep.KernelN, int(rep.SearchNodes)
		}
	}
	_, end, ok := st.col.Run()
	if !ok {
		t.Fatal("trace has no run-start or run-end record")
	}
	if err := st.jw.Close(); err != nil {
		t.Fatal(err)
	}
	out.rounds, out.summary, out.spanMsgs, out.end = st.col.RoundEvents(), st.col.SpanSummary(), st.col.SpanMessages(), end
	out.begins, out.ends = st.col.SpanMarks()
	// Kernel-solve records carry wall-clock durations; the leader fields
	// above hold what is deterministic in them.
	var stream strings.Builder
	for line := range strings.Lines(st.stream.String()) {
		if !strings.HasPrefix(line, `{"type":"kernel-solve"`) {
			stream.WriteString(line)
		}
	}
	out.stream = stream.String()
	return out
}

// checkSkipDifferential runs one algorithm three ways — stepped in every
// round, and skipping at shards 1 and 3 — and requires identical results,
// Stats and traces. It also requires the skipping runs to step fewer node
// rounds than the stepped one, so the differential cannot pass vacuously,
// and at most half as many within each of the named spans (index 0), so a
// stage that should go quiet cannot silently stop being skipped. It returns
// the stepped run and the node steps of the skipping run at shards 1.
func checkSkipDifferential(t *testing.T, run func(o Options, run nodeRunner) (*Result, error), quiet ...string) (skipRun, *stepCounts) {
	t.Helper()
	return checkSkipDifferentialLimit(t, 0, run, quiet...)
}

// checkSkipDifferentialLimit is checkSkipDifferential under a MaxRounds
// limit (0 = none); a limited run must fail with ErrMaxRounds, at the same
// round and with the same trace as the stepped run.
func checkSkipDifferentialLimit(t *testing.T, limit int, run func(o Options, run nodeRunner) (*Result, error), quiet ...string) (skipRun, *stepCounts) {
	t.Helper()
	st := newSkipTracer()
	var refSteps stepCounts
	res, err := run(Options{Seed: 5, MaxRounds: limit, Tracer: st.tracer()}, countingRunner(&refSteps, true))
	want := collectSkipRun(t, res, err, st, limit > 0)
	if limit > 0 && !strings.Contains(want.err, congest.ErrMaxRounds.Error()) {
		t.Fatalf("stepped run under MaxRounds %d: err %q, want ErrMaxRounds", limit, want.err)
	}
	if limit == 0 && len(want.rounds) != want.stats.Rounds {
		t.Fatalf("stepped run traced %d rounds, counted %d", len(want.rounds), want.stats.Rounds)
	}
	var first *stepCounts
	for _, shards := range []int{1, 3} {
		st := newSkipTracer()
		steps := new(stepCounts)
		if first == nil {
			first = steps
		}
		res, err := run(Options{Seed: 5, Shards: shards, MaxRounds: limit, Tracer: st.tracer()}, countingRunner(steps, false))
		got := collectSkipRun(t, res, err, st, limit > 0)
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
		t.Logf("shards=%d: %d of %d node steps (%d rounds)", shards, steps.total, refSteps.total, len(want.rounds))
	}
	return want, first
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
	return fmt.Sprintf("err %q solution %s phaseI %d fallback %d stats %+v spans %q rounds traced %d end %+v",
		r.err, r.solution, r.phaseI, r.fallback, r.stats, r.summary, len(r.rounds), r.end)
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

// TestMDSCongestSkipMatchesStepped holds Theorem 28's idle skips, the jump
// over the silent phases included, to the run that steps every round, at
// r = 1 to 4 and shards 1 and 3. Besides the skip instances it runs a slow
// one: PhaseFactor 1 and SampleFactor 1 on a sparse G(40, 3/40), whose
// last vertex is covered only in phase 4 of 35 at r = 1, so covered nodes
// promise the rest of the run for phases on end while others still work.
// (No small instance we tried, at these settings or the defaults, leaves a
// vertex uncovered to the last phase, so none takes a fallback join.)
//
// On every instance it checks that the phases are phaseLen rounds long,
// as the jump assumes; that the jump fired, so that once the last message
// is sent a node steps at most twice before the head of the last phase,
// and the last phase only at its six stage changes; and, where coverage
// takes several phases, that the engine also refused promises to the last
// phase while some node still had work to do.
func TestMDSCongestSkipMatchesStepped(t *testing.T) {
	instances := skipInstances()
	instances["slow"] = graph.ConnectedGNP(40, 3.0/40, rand.New(rand.NewSource(4000)))
	for name, g := range instances {
		for r := 1; r <= 4; r++ {
			t.Run(fmt.Sprintf("%s/r=%d", name, r), func(t *testing.T) {
				opts := MDSOptions{Options: Options{Power: r}}
				if name == "slow" {
					opts.PhaseFactor, opts.SampleFactor = 1, 1
				}
				run := func(o Options, run nodeRunner) (*Result, error) {
					o.Power = r
					mo := opts
					mo.Options = o
					return approxMDSCongest(g, &mo, run)
				}
				want, steps := checkSkipDifferential(t, run)
				p, _, err := deriveMDSParams(g, &opts)
				if err != nil {
					t.Fatal(err)
				}
				L := p.phaseLen()
				if sum := fmt.Sprintf("mds-phase*%d:%d", p.phases, p.phases*L); !strings.Contains(want.summary, sum) {
					t.Fatalf("span summary %q: want %s, %d phases of %d rounds", want.summary, sum, p.phases, L)
				}
				for _, sp := range want.begins {
					if sp.Name == "mds-phase" && sp.Round != sp.Index*L {
						t.Fatalf("phase %d begins at round %d, want %d", sp.Index, sp.Round, sp.Index*L)
					}
				}
				last := 0
				for _, ev := range want.rounds {
					if ev.Messages > 0 {
						last = ev.Round
					}
				}
				lastHead := (p.phases - 1) * L
				if last >= lastHead-L {
					t.Fatalf("last message in round %d, within a phase of the last phase's head %d: nothing to jump", last, lastHead)
				}
				if tail := steps.within(last+1, lastHead); tail > int64(2*g.N()) {
					t.Fatalf("%d node steps between the last message (round %d) and the last phase (round %d): want at most 2 per node", tail, last, lastHead)
				}
				if steps.jumps == 0 {
					t.Fatal("no Skip crossed a whole phase")
				}
				if last >= 2*L && steps.refuse == 0 {
					t.Fatalf("coverage took until round %d (phase %d), yet no promise to the last phase was refused", last, last/L)
				}
				if final := steps.within(lastHead, lastHead+L+1); final > int64(6*g.N()) {
					t.Fatalf("%d node steps in the last phase: want its six stage changes per node at most", final)
				}
				t.Logf("last message in phase %d of %d; %d jumps, %d refused promises", last/L, p.phases, steps.jumps, steps.refuse)
			})
		}
	}
}

// TestMDSCongestSkipStopsAtMaxRounds: a round limit inside the jump over the
// silent phases cuts it short in any stage, and the run aborts at the same
// round, with the same error and trace, as the stepped run.
func TestMDSCongestSkipStopsAtMaxRounds(t *testing.T) {
	g := skipInstances()["gnp40"]
	for r := 1; r <= 3; r++ {
		opts := MDSOptions{Options: Options{Power: r}}
		p, _, err := deriveMDSParams(g, &opts)
		if err != nil {
			t.Fatal(err)
		}
		L := p.phaseLen()
		// Offsets into phase 10, long after coverage: the head, inside and
		// at the close of each stage, and the round before the next head.
		est, hop := p.r*p.rpow, p.r*p.rpow+2*p.rpow
		for _, off := range []int{0, 1, est - 1, est, est + 1, hop, hop + p.rpow, hop + p.rpow + 1, L - 2, L - 1} {
			limit := 10*L + off
			t.Run(fmt.Sprintf("r=%d/limit=%d", r, limit), func(t *testing.T) {
				checkSkipDifferentialLimit(t, limit, func(o Options, run nodeRunner) (*Result, error) {
					mo := opts
					mo.Options = o
					mo.Power = r
					return approxMDSCongest(g, &mo, run)
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
