package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"powergraph/internal/obs"
)

// span is one timed interval the traced run records around a call into a
// layer. Op ties the spans of one job or request together; Parent is the span
// that made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced run's spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, op, parent int64, start, end time.Time) int64 {
	s := span{
		ID: r.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// openSpan is a span whose id is known before it ends, so that the calls it
// makes can name it as their parent.
type openSpan struct {
	rec    *recorder
	id, op int64
	parent int64
	name   string
	start  time.Time
}

func (r *recorder) start(name string, op, parent int64) *openSpan {
	return &openSpan{rec: r, id: r.nextID.Add(1), op: op, parent: parent, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (s *openSpan) end() time.Duration {
	now := time.Now()
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.rec.origin).Nanoseconds(), End: now.Sub(s.rec.origin).Nanoseconds(),
	})
	s.rec.mu.Unlock()
	return now.Sub(s.start)
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, op, parent int64, f func()) time.Duration {
	s := r.start(name, op, parent)
	f()
	return s.end()
}

// byName sums span durations per name and counts them.
func (r *recorder) byName() map[string]spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]spanTotal{}
	for _, s := range r.spans {
		t := out[s.Name]
		t.n++
		t.sum += s.dur()
		out[s.Name] = t
	}
	return out
}

type spanTotal struct {
	n   int
	sum time.Duration
}

func (t spanTotal) meanMS() float64 {
	if t.n == 0 {
		return 0
	}
	return ms(t.sum) / float64(t.n)
}

// write stores the spans as JSON lines in <dir>/<name>.spans.jsonl.
func (r *recorder) write(dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTracer is the obs.Tracer the traced run hands to
// harness.SolveInstance. It timestamps the engine's phase-span marks and the
// leader's kernel-solve events, turning them into spans under the solve's
// span, and keeps the kernel events for their counts.
type engineTracer struct {
	rec        *recorder
	op, parent int64

	mu      sync.Mutex
	open    map[phaseKey]time.Time
	kernels []obs.KernelSolveEvent
}

// phaseKey identifies one phase-span instance; the engine marks each
// (name, index) pair open once and closed once.
type phaseKey struct {
	name  string
	index int
}

func newEngineTracer(rec *recorder, op, parent int64) *engineTracer {
	return &engineTracer{rec: rec, op: op, parent: parent, open: map[phaseKey]time.Time{}}
}

func (t *engineTracer) RunStart(obs.RunInfo) {}
func (t *engineTracer) Round(obs.RoundEvent) {}
func (t *engineTracer) RunEnd(obs.RunEnd)    {}
func (t *engineTracer) WantRounds() bool     { return false }

func (t *engineTracer) SpanBegin(s obs.Span) {
	t.mu.Lock()
	t.open[phaseKey{s.Name, s.Index}] = time.Now()
	t.mu.Unlock()
}

func (t *engineTracer) SpanEnd(s obs.Span) {
	now := time.Now()
	key := phaseKey{s.Name, s.Index}
	t.mu.Lock()
	start, ok := t.open[key]
	delete(t.open, key)
	t.mu.Unlock()
	if ok {
		t.rec.add("core."+s.Name, t.op, t.parent, start, now)
	}
}

// KernelSolve records the leader solve as a span ending now, with its
// reduction and search rungs as children (reduction runs first, search
// last).
func (t *engineTracer) KernelSolve(e obs.KernelSolveEvent) {
	end := time.Now()
	start := end.Add(-time.Duration(e.DurationNS))
	id := t.rec.add("kernel.leader", t.op, t.parent, start, end)
	t.rec.add("kernel.reduce", t.op, id, start, start.Add(time.Duration(e.ReduceNS)))
	t.rec.add("kernel.search", t.op, id, end.Add(-time.Duration(e.SolveNS)), end)
	t.mu.Lock()
	t.kernels = append(t.kernels, e)
	t.mu.Unlock()
}

// solveCounts accumulates the exact work counts of traced solves.
type solveCounts struct {
	mu                      sync.Mutex
	solves                  int
	rounds, messages, bits  int64
	leaderSolves, fallbacks int
	searchNodes             int64
	maxKernelN              int
}

func (c *solveCounts) add(rounds int, messages, bits int64, kernels []obs.KernelSolveEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.solves++
	c.rounds += int64(rounds)
	c.messages += messages
	c.bits += bits
	for _, k := range kernels {
		c.leaderSolves++
		if !k.Optimal {
			c.fallbacks++
		}
		c.searchNodes += k.SearchNodes
		c.maxKernelN = max(c.maxKernelN, k.KernelN)
	}
}

// setSolveLayers reports the graph, core/congest, kernel and verify metrics
// from a traced run's spans and counts. Spans are named after the layer that
// ran: graph.build, graph.power, harness.solve (harness.SolveInstance),
// core.<phase>, kernel.leader/reduce/search, kernel.oracle and verify.
func setSolveLayers(res *result, rec *recorder, c *solveCounts) {
	t := rec.byName()
	solve, leader, oracle := t["harness.solve"].sum, t["kernel.leader"].sum, t["kernel.oracle"].sum
	res.set("graph.build_ms", t["graph.build"].meanMS())
	res.set("graph.power_ms", t["graph.power"].meanMS())
	if n := t["harness.solve"].n; n > 0 {
		res.set("core.solve_ms", ms(solve-leader)/float64(n))
	}
	for _, p := range topPhases {
		res.set("core.phase_frac."+p, ratio(float64(t["core."+p].sum), float64(solve)))
	}
	res.set("kernel.leader_frac", ratio(float64(leader), float64(solve)))
	res.set("kernel.reduce_frac", ratio(float64(t["kernel.reduce"].sum), float64(leader)))
	res.set("kernel.search_frac", ratio(float64(t["kernel.search"].sum), float64(leader)))
	res.set("kernel.oracle_frac", ratio(float64(oracle), float64(solve+oracle)))
	res.set("verify.ms", t["verify"].meanMS())

	c.mu.Lock()
	defer c.mu.Unlock()
	n := float64(c.solves)
	res.set("congest.rounds", ratio(float64(c.rounds), n))
	res.set("congest.messages", ratio(float64(c.messages), n))
	res.set("congest.bits", ratio(float64(c.bits), n))
	res.set("kernel.search_nodes", ratio(float64(c.searchNodes), float64(c.leaderSolves)))
	res.set("kernel.kernel_n.max", float64(c.maxKernelN))
	res.set("kernel.fallback_frac", ratio(float64(c.fallbacks), float64(c.leaderSolves)))
	res.Detail["layerTotalsMs"] = layerTotals(t)
}

// layerTotals lists each span name's summed duration in milliseconds and its
// count, for the result file.
func layerTotals(t map[string]spanTotal) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, s := range t {
		out[name] = map[string]float64{"ms": ms(s.sum), "count": float64(s.n)}
	}
	return out
}
