package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLWriterEmitsTypedRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.RunStart(RunInfo{N: 4, Model: "CONGEST", Bandwidth: 16, MaxRounds: 100, Seed: 7})
	w.Round(RoundEvent{Round: 0, Active: 4, Messages: 8, Bits: 32, MaxLink: 4})
	w.SpanBegin(Span{Name: "phase1", Index: 0, Round: 0})
	w.SpanEnd(Span{Name: "phase1", Index: 0, Round: 3})
	w.KernelSolve(KernelSolveEvent{Path: "direct", InputN: 4, Cost: 2, Optimal: true})
	w.RunEnd(RunEnd{Rounds: 4, Messages: 8, TotalBits: 32})
	w.Emit("job", struct {
		Index int `json:"index"`
	}{5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantTypes := []string{"run-start", "round", "span-begin", "span-end", "kernel-solve", "run-end", "job"}
	if len(lines) != len(wantTypes) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(wantTypes), buf.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if m["type"] != wantTypes[i] {
			t.Fatalf("line %d type = %v, want %q", i, m["type"], wantTypes[i])
		}
	}
	// The type discriminator is spliced, not nested: the event payload's own
	// fields sit at the top level.
	var round struct {
		Type string `json:"type"`
		Bits int64  `json:"bits"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &round); err != nil || round.Bits != 32 {
		t.Fatalf("round record not flat: %s (err %v)", lines[1], err)
	}
}

func TestJSONLWriterRejectsNonObject(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit("bad", 42)
	if err := w.Close(); err == nil {
		t.Fatal("emitting a non-object record must surface an error")
	}
}

func TestCollectorSpanSummary(t *testing.T) {
	c := &Collector{}
	// Two phase1-iter completions (rounds 1-3 and 4-5), one leader-solve of
	// zero length, interleaved with an unmatched end that must be ignored.
	c.SpanEnd(Span{Name: "ghost", Round: 0})
	c.SpanBegin(Span{Name: "phase1-iter", Round: 1})
	c.SpanEnd(Span{Name: "phase1-iter", Round: 3})
	c.SpanBegin(Span{Name: "phase1-iter", Round: 4})
	c.SpanEnd(Span{Name: "phase1-iter", Round: 5})
	c.SpanBegin(Span{Name: "leader-solve", Round: 9})
	c.SpanEnd(Span{Name: "leader-solve", Round: 9})
	got := c.SpanSummary()
	want := "phase1-iter*2:3;leader-solve*1:0"
	if got != want {
		t.Fatalf("SpanSummary = %q, want %q", got, want)
	}
	if names := c.SpanNames(); len(names) != 2 || names[0] != "leader-solve" || names[1] != "phase1-iter" {
		t.Fatalf("SpanNames = %v", names)
	}
	if open := c.OpenSpans(); len(open) != 0 {
		t.Fatalf("OpenSpans = %v, want none", open)
	}
}

func TestCollectorRefcountedOverlap(t *testing.T) {
	c := &Collector{}
	// Nested begins of the same name collapse to one completion spanning the
	// outermost interval — the Collector mirrors the engine's refcounting
	// for tracers attached directly (unit tests, custom sinks).
	c.SpanBegin(Span{Name: "phase1", Round: 0})
	c.SpanBegin(Span{Name: "phase1", Round: 1})
	c.SpanEnd(Span{Name: "phase1", Round: 7})
	if open := c.OpenSpans(); len(open) != 1 || open[0] != "phase1" {
		t.Fatalf("OpenSpans = %v, want [phase1]", open)
	}
	c.SpanEnd(Span{Name: "phase1", Round: 8})
	if got := c.SpanSummary(); got != "phase1*1:8" {
		t.Fatalf("SpanSummary = %q, want phase1*1:8", got)
	}
}

func TestMultiRoutesRoundsBySubscription(t *testing.T) {
	spanOnly := &Collector{}
	full := &Collector{CollectRounds: true}
	m := Multi{spanOnly, full}
	if !m.WantRounds() {
		t.Fatal("Multi with a rounds subscriber must want rounds")
	}
	m.Round(RoundEvent{Round: 0, Bits: 8})
	if got := len(full.RoundEvents()); got != 1 {
		t.Fatalf("full collector saw %d rounds, want 1", got)
	}
	if got := len(spanOnly.RoundEvents()); got != 0 {
		t.Fatalf("span-only collector saw %d rounds, want 0", got)
	}
	if (Multi{spanOnly}).WantRounds() {
		t.Fatal("Multi of span-only tracers must not want rounds")
	}
}

func helperPanicsite() string { return StackSummary(0, 4) }

func TestStackSummaryDeterministicAndClean(t *testing.T) {
	a, b := helperPanicsite(), helperPanicsite()
	if a != b {
		t.Fatalf("two identical call sites differ:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "helperPanicsite") || !strings.Contains(a, "obs_test.go") {
		t.Fatalf("summary missing caller frame: %s", a)
	}
	if strings.Contains(a, "0x") || strings.Contains(a, "goroutine ") {
		t.Fatalf("summary contains nondeterministic material: %s", a)
	}
	if frames := strings.Count(a, " <- ") + 1; frames > 4 {
		t.Fatalf("max frames not honored: %d frames in %s", frames, a)
	}
}

func TestReadRuntimeMonotonicCounters(t *testing.T) {
	before := ReadRuntime()
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	after := ReadRuntime()
	if after.AllocBytes < before.AllocBytes {
		t.Fatalf("alloc counter went backwards: %d -> %d", before.AllocBytes, after.AllocBytes)
	}
	if before.Goroutines <= 0 {
		t.Fatalf("goroutine count %d", before.Goroutines)
	}
}
