// Package obs is the observability substrate threaded through both CONGEST
// engines, the step primitives, the kernel solver, and the harness: a
// zero-cost-when-disabled Tracer interface plus ready-made sinks.
//
// The contract with the hot path is strict: a nil Tracer costs one pointer
// comparison and zero allocations per event site, and an attached Tracer
// must never perturb a seeded run — all event payloads are pure functions of
// the deterministic run state (wall-clock durations appear only in fields
// that are excluded from the determinism-checked result records).
//
// Three implementations ship with the package:
//
//   - JSONLWriter streams every event as one JSON object per line with a
//     "type" discriminator — the format cmd/powertrace parses;
//   - Collector aggregates in memory (span summaries, round totals) for the
//     harness and for tests;
//   - Multi fans events out to several tracers.
//
// Concurrency: calls into a Tracer never overlap within one run. The engine
// emits run, round and span events from its round loop (a sharded run
// replays span marks at the barrier, in node-id order), while a leader's
// kernel-solve event fires inside its node's step — on a shard worker when
// the run is sharded, between two barriers. The shipped implementations
// are nevertheless safe for concurrent use, so one tracer may serve
// several runs.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
)

// Tracer receives run events from an engine (and kernel-solve events from
// the leader's local solver). A nil Tracer means tracing is disabled; every
// emission site guards with a nil check so the disabled path pays one branch.
type Tracer interface {
	// RunStart is emitted once, before round 0 begins.
	RunStart(RunInfo)
	// Round is emitted once per completed communication round, in round
	// order, only when WantRounds reported true at run start.
	Round(RoundEvent)
	// SpanBegin marks the opening of a phase span at the given round.
	SpanBegin(Span)
	// SpanEnd marks the close of a phase span. Spans are half-open round
	// intervals [begin, end): a span that begins and ends at the same round
	// consumed no communication rounds (e.g. a leader-local solve).
	SpanEnd(Span)
	// KernelSolve is emitted by the Phase-II leader's kernelize-then-solve
	// local computation.
	KernelSolve(KernelSolveEvent)
	// RunEnd is emitted once, after the run resolves (success or error).
	RunEnd(RunEnd)
	// WantRounds reports whether this tracer wants per-round events. The
	// engine samples it once at run start; returning false lets span-only
	// tracers skip the per-round accounting (max single-link bits requires
	// an inbox walk every round).
	WantRounds() bool
}

// RunInfo describes the run an engine is starting.
type RunInfo struct {
	N         int    `json:"n"`
	Model     string `json:"model"`
	Bandwidth int    `json:"bandwidth"`
	MaxRounds int    `json:"maxRounds"`
	Seed      int64  `json:"seed"`
}

// RoundEvent is the per-round cost record: how many nodes were still
// active, and how much traffic the round carried. MaxLink is the largest
// bit volume any single directed link carried this round — the congestion
// figure the end-of-run MaxRoundBits scalar only hints at.
type RoundEvent struct {
	Round    int   `json:"round"`
	Active   int   `json:"active"`
	Messages int64 `json:"msgs"`
	Bits     int64 `json:"bits"`
	MaxLink  int64 `json:"maxLink"`
}

// Span identifies one phase-span mark. Index distinguishes repeated spans
// of the same name (Phase-I iteration number, MDS phase number); Round is
// the engine round at which the mark occurred. Msgs is the cumulative
// network message count delivered BEFORE that round — a round-boundary
// snapshot, so end.Msgs − begin.Msgs prices exactly the traffic of the
// half-open round interval [begin, end), deterministically on every engine.
type Span struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	Round int    `json:"round"`
	Msgs  int64  `json:"msgs,omitempty"`
}

// KernelSolveEvent describes one leader-local kernelize-then-solve call.
// The *NS durations are wall-clock and appear only in trace output, never
// in determinism-checked results.
type KernelSolveEvent struct {
	Path        string         `json:"path"`
	InputN      int            `json:"inputN"`
	InputM      int            `json:"inputM"`
	KernelN     int            `json:"kernelN"`
	KernelM     int            `json:"kernelM"`
	SearchNodes int64          `json:"searchNodes"`
	ForcedCost  int64          `json:"forcedCost"`
	LowerBound  int64          `json:"lowerBound"`
	Cost        int64          `json:"cost"`
	Optimal     bool           `json:"optimal"`
	Rules       map[string]int `json:"rules,omitempty"`
	DurationNS  int64          `json:"durationNS"`
	ReduceNS    int64          `json:"reduceNS"`
	SolveNS     int64          `json:"solveNS"`
}

// RunEnd carries the final run aggregates (mirroring congest.Stats) and the
// run error, if any.
type RunEnd struct {
	Rounds           int    `json:"rounds"`
	Messages         int64  `json:"messages"`
	TotalBits        int64  `json:"totalBits"`
	MaxRoundBits     int64  `json:"maxRoundBits"`
	MaxRoundMessages int64  `json:"maxRoundMessages"`
	Error            string `json:"error,omitempty"`
}

// JSONLWriter is a Tracer that streams every event as one JSON object per
// line, each carrying a "type" field ("run-start", "round", "span-begin",
// "span-end", "kernel-solve", "run-end"). It is safe for concurrent use and
// buffers internally; call Close (or Flush) to drain.
type JSONLWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewJSONLWriter returns a JSONLWriter streaming to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Emit writes one record of the given type. The type discriminator is
// spliced in front of v's own fields, so v must marshal to a JSON object.
// Arbitrary record types (the harness's job records) go through here too.
func (w *JSONLWriter) Emit(typ string, v any) {
	body, err := json.Marshal(v)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err != nil {
		w.err = err
		return
	}
	if len(body) < 2 || body[0] != '{' {
		w.err = fmt.Errorf("obs: record %q did not marshal to an object", typ)
		return
	}
	w.bw.WriteString(`{"type":`)
	b, _ := json.Marshal(typ)
	w.bw.Write(b)
	if len(body) > 2 { // non-empty object: {"type":"x","field":...}
		w.bw.WriteByte(',')
		w.bw.Write(body[1 : len(body)-1])
	}
	w.bw.WriteByte('}')
	if err := w.bw.WriteByte('\n'); err != nil {
		w.err = err
	}
}

// RunStart implements Tracer.
func (w *JSONLWriter) RunStart(e RunInfo) { w.Emit("run-start", e) }

// Round implements Tracer.
func (w *JSONLWriter) Round(e RoundEvent) { w.Emit("round", e) }

// SpanBegin implements Tracer.
func (w *JSONLWriter) SpanBegin(s Span) { w.Emit("span-begin", s) }

// SpanEnd implements Tracer.
func (w *JSONLWriter) SpanEnd(s Span) { w.Emit("span-end", s) }

// KernelSolve implements Tracer.
func (w *JSONLWriter) KernelSolve(e KernelSolveEvent) { w.Emit("kernel-solve", e) }

// RunEnd implements Tracer.
func (w *JSONLWriter) RunEnd(e RunEnd) { w.Emit("run-end", e) }

// WantRounds implements Tracer: a trace file wants everything.
func (w *JSONLWriter) WantRounds() bool { return true }

// Flush drains the internal buffer and returns the first error seen.
func (w *JSONLWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Close flushes; the caller owns the underlying writer.
func (w *JSONLWriter) Close() error { return w.Flush() }

// spanAgg accumulates one (name, index) span instance inside a Collector.
// Aggregation is keyed by the full instance, not the name alone: the engine
// guarantees deterministic begin/end rounds per instance, and per-instance
// aggregation keeps the summary independent of the order in which marks of
// different instances arrive within one round (a node's end(iter i) and
// begin(iter i+1) happen in one step).
type spanAgg struct {
	firstRound int   // round of the first begin — deterministic sort key
	count      int   // completed begin→end pairs
	rounds     int   // total rounds spanned across completions
	msgs       int64 // total messages delivered across completed spans
	open       int   // currently open marks
	openRound  int   // round of the open mark (for rounds accounting)
	openMsgs   int64 // cumulative-message snapshot of the open mark
}

// spanID keys a Collector's aggregation: one logical span instance.
type spanID struct {
	name  string
	index int
}

// Collector is a Tracer that aggregates in memory. The zero value collects
// spans, kernel solves, and run aggregates but skips per-round events; set
// CollectRounds before the run to keep those too. Safe for concurrent use.
type Collector struct {
	// CollectRounds makes WantRounds return true so the engine emits (and
	// the Collector retains) per-round events. Leave false for the cheap
	// span-only mode the harness attaches to every job.
	CollectRounds bool

	mu      sync.Mutex
	info    RunInfo
	end     RunEnd
	started bool
	ended   bool
	rounds  []RoundEvent
	spans   map[spanID]*spanAgg
	begins  []Span
	ends    []Span
	kernels []KernelSolveEvent
}

// RunStart implements Tracer.
func (c *Collector) RunStart(e RunInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.info = e
	c.started = true
}

// Round implements Tracer.
func (c *Collector) Round(e RoundEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds = append(c.rounds, e)
}

// SpanBegin implements Tracer.
func (c *Collector) SpanBegin(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spans == nil {
		c.spans = make(map[spanID]*spanAgg)
	}
	id := spanID{s.Name, s.Index}
	a := c.spans[id]
	if a == nil {
		a = &spanAgg{firstRound: s.Round}
		c.spans[id] = a
	}
	a.open++
	if a.open == 1 {
		a.openRound = s.Round
		a.openMsgs = s.Msgs
	}
	c.begins = append(c.begins, s)
}

// SpanEnd implements Tracer.
func (c *Collector) SpanEnd(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.spans[spanID{s.Name, s.Index}]
	if a == nil || a.open == 0 {
		return // unmatched end: engine filtering should prevent this
	}
	a.open--
	if a.open == 0 {
		a.count++
		a.rounds += s.Round - a.openRound
		a.msgs += s.Msgs - a.openMsgs
	}
	c.ends = append(c.ends, s)
}

// KernelSolve implements Tracer.
func (c *Collector) KernelSolve(e KernelSolveEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kernels = append(c.kernels, e)
}

// RunEnd implements Tracer.
func (c *Collector) RunEnd(e RunEnd) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end = e
	c.ended = true
}

// WantRounds implements Tracer.
func (c *Collector) WantRounds() bool { return c.CollectRounds }

// RoundEvents returns the collected per-round events in round order.
func (c *Collector) RoundEvents() []RoundEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RoundEvent(nil), c.rounds...)
}

// SpanMarks returns every begin and end mark seen, in arrival order.
func (c *Collector) SpanMarks() (begins, ends []Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.begins...), append([]Span(nil), c.ends...)
}

// KernelSolves returns the collected kernel-solve events.
func (c *Collector) KernelSolves() []KernelSolveEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]KernelSolveEvent(nil), c.kernels...)
}

// Run returns the run-start and run-end records and whether both arrived.
func (c *Collector) Run() (RunInfo, RunEnd, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info, c.end, c.started && c.ended
}

// OpenSpans returns the names of spans left open (begin without end),
// sorted; empty on a well-formed completed run.
func (c *Collector) OpenSpans() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	for id, a := range c.spans {
		if a.open > 0 {
			seen[id.name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SpanSummary renders the completed spans as a deterministic single-line
// summary: entries "name*count:rounds" (count completions totalling rounds
// communication rounds), ordered by first-begin round then name, joined by
// ";". Determinism holds because span marks happen at engine-determined
// rounds — the summary is a pure function of the seeded run.
func (c *Collector) SpanSummary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	type entry struct {
		name       string
		firstRound int
		count      int
		rounds     int
	}
	byName := map[string]*entry{}
	for id, a := range c.spans {
		if a.count == 0 {
			continue
		}
		e := byName[id.name]
		if e == nil {
			e = &entry{name: id.name, firstRound: a.firstRound}
			byName[id.name] = e
		}
		if a.firstRound < e.firstRound {
			e.firstRound = a.firstRound
		}
		e.count += a.count
		e.rounds += a.rounds
	}
	entries := make([]*entry, 0, len(byName))
	for _, e := range byName {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].firstRound != entries[j].firstRound {
			return entries[i].firstRound < entries[j].firstRound
		}
		return entries[i].name < entries[j].name
	})
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s*%d:%d", e.name, e.count, e.rounds)
	}
	return b.String()
}

// SpanMessages returns, per span name, the total network messages delivered
// during completed spans of that name (summed over instances, computed from
// the round-boundary snapshots the engines stamp on every mark). Like
// SpanSummary it is a pure function of the seeded run, identical on every
// engine — it is how the harness prices the Phase-II gather
// (JobResult.GatherMsgs, the gatherMessages cells of BENCH_sparsify.json).
func (c *Collector) SpanMessages() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64)
	for id, a := range c.spans {
		if a.count > 0 {
			out[id.name] += a.msgs
		}
	}
	return out
}

// SpanNames returns the distinct names of completed spans, sorted.
func (c *Collector) SpanNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	for id, a := range c.spans {
		if a.count > 0 {
			seen[id.name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Multi fans every event out to each tracer in order.
type Multi []Tracer

// RunStart implements Tracer.
func (m Multi) RunStart(e RunInfo) {
	for _, t := range m {
		t.RunStart(e)
	}
}

// Round implements Tracer: only tracers that asked for rounds receive them.
func (m Multi) Round(e RoundEvent) {
	for _, t := range m {
		if t.WantRounds() {
			t.Round(e)
		}
	}
}

// SpanBegin implements Tracer.
func (m Multi) SpanBegin(s Span) {
	for _, t := range m {
		t.SpanBegin(s)
	}
}

// SpanEnd implements Tracer.
func (m Multi) SpanEnd(s Span) {
	for _, t := range m {
		t.SpanEnd(s)
	}
}

// KernelSolve implements Tracer.
func (m Multi) KernelSolve(e KernelSolveEvent) {
	for _, t := range m {
		t.KernelSolve(e)
	}
}

// RunEnd implements Tracer.
func (m Multi) RunEnd(e RunEnd) {
	for _, t := range m {
		t.RunEnd(e)
	}
}

// WantRounds implements Tracer: true if any member wants rounds.
func (m Multi) WantRounds() bool {
	for _, t := range m {
		if t.WantRounds() {
			return true
		}
	}
	return false
}

// StackSummary captures a deterministic one-line summary of the calling
// goroutine's stack: up to max frames of "func (file:line)" joined by
// " <- ", with runtime-internal frames dropped. Unlike debug.Stack it
// contains no goroutine IDs or hex words, so it is safe to embed in
// determinism-checked result records. skip counts frames above the caller
// to omit (0 = start at the caller of StackSummary).
func StackSummary(skip, max int) string {
	if max <= 0 {
		max = 8
	}
	pcs := make([]uintptr, max+8)
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		return ""
	}
	frames := runtime.CallersFrames(pcs[:n])
	var b strings.Builder
	count := 0
	for count < max {
		f, more := frames.Next()
		if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") {
			if count > 0 {
				b.WriteString(" <- ")
			}
			fmt.Fprintf(&b, "%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
			count++
		}
		if !more {
			break
		}
	}
	return b.String()
}

// RuntimeSnapshot is a point-in-time read of the runtime/metrics counters
// the harness attaches to job results. All values are machine- and
// timing-dependent: they never enter determinism-checked output.
type RuntimeSnapshot struct {
	HeapBytes  uint64 // /memory/classes/heap/objects:bytes
	AllocBytes uint64 // /gc/heap/allocs:bytes (monotonic)
	GCCycles   uint64 // /gc/cycles/total:gc-cycles (monotonic)
	Goroutines int
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// ReadRuntime samples the runtime metrics snapshot.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	var s RuntimeSnapshot
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.HeapBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.AllocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		s.GCCycles = samples[2].Value.Uint64()
	}
	s.Goroutines = runtime.NumGoroutine()
	return s
}

// JobMetrics is the per-job runner metrics record the harness attaches to
// JobResult. Everything here is wall-clock or machine state: the field is
// excluded from serialized results and neutralized in differential tests.
type JobMetrics struct {
	QueueNS    int64  `json:"queueNS"`    // submit-to-start latency
	WallNS     int64  `json:"wallNS"`     // job execution wall time
	HeapBytes  uint64 `json:"heapBytes"`  // heap objects after the job
	AllocBytes uint64 `json:"allocBytes"` // bytes allocated during the job
	GCCycles   uint64 `json:"gcCycles"`   // GC cycles during the job
	Goroutines int    `json:"goroutines"` // goroutines after the job
}
