package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powergraph/internal/core"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// TestRegistryTraceConformance runs every distributed registry entry on the
// sequential and a sharded sweep across the full supported power range with
// a rounds-subscribed collector attached, and checks the trace-completeness
// contract: one round event per counted round, event sums reproducing the
// end-of-run Stats exactly, every closed span drawn from the entry's
// declared taxonomy, and span summaries agreeing across shard counts.
func TestRegistryTraceConformance(t *testing.T) {
	for _, info := range AlgorithmInfos() {
		if info.Model == ModelCentralized {
			continue
		}
		alg, _ := lookupAlgorithm(info.Name)
		declared := map[string]bool{}
		for _, s := range info.Spans {
			declared[s] = true
		}
		if len(declared) == 0 {
			t.Fatalf("%s: distributed entry declares no spans", info.Name)
		}
		for r := info.MinPower; r <= info.MaxPower; r++ {
			summaries := map[int]string{}
			for _, shards := range []int{1, 3} {
				job := Job{
					Generator: GeneratorSpec{Name: "connected-gnp"},
					N:         20, Power: r,
					Algorithm: info.Name, Epsilon: 0.5,
					Seed: 101, Shards: shards,
				}
				rng := rand.New(rand.NewSource(job.instanceSeed()))
				g, err := job.Generator.Build(job.N, rng)
				if err != nil {
					t.Fatal(err)
				}
				col := &obs.Collector{CollectRounds: true}
				res, err := alg.Run(context.Background(), g, g.Power(r), job, col)
				if err != nil {
					t.Fatalf("%s r=%d shards=%d: %v", info.Name, r, shards, err)
				}

				evs := col.RoundEvents()
				if len(evs) != res.Stats.Rounds {
					t.Fatalf("%s r=%d shards=%d: %d round events for %d counted rounds",
						info.Name, r, shards, len(evs), res.Stats.Rounds)
				}
				var bits, msgs int64
				for i, ev := range evs {
					if ev.Round != i {
						t.Fatalf("%s r=%d shards=%d: event %d carries round %d",
							info.Name, r, shards, i, ev.Round)
					}
					bits += ev.Bits
					msgs += ev.Messages
				}
				if bits != res.Stats.TotalBits || msgs != res.Stats.Messages {
					t.Fatalf("%s r=%d shards=%d: event sums bits=%d msgs=%d vs stats bits=%d msgs=%d",
						info.Name, r, shards, bits, msgs, res.Stats.TotalBits, res.Stats.Messages)
				}

				if open := col.OpenSpans(); len(open) != 0 {
					t.Fatalf("%s r=%d shards=%d: unclosed spans %v", info.Name, r, shards, open)
				}
				for _, name := range col.SpanNames() {
					if !declared[name] {
						t.Fatalf("%s r=%d shards=%d: emitted span %q not in declared taxonomy %v",
							info.Name, r, shards, name, info.Spans)
					}
				}
				if _, end, ok := col.Run(); !ok || end.Rounds != res.Stats.Rounds {
					t.Fatalf("%s r=%d shards=%d: run-end missing or wrong: ok=%v end=%+v",
						info.Name, r, shards, ok, end)
				}
				summaries[shards] = col.SpanSummary()
			}
			if summaries[1] != summaries[3] {
				t.Fatalf("%s r=%d: span summaries diverge:\n shards=1 %q\n shards=3 %q",
					info.Name, r, summaries[1], summaries[3])
			}
		}
	}
}

// TestTracingDoesNotPerturbSweep is the determinism-under-observation
// contract, with the shard axis folded in: the same spec produces
// byte-identical JSONL and CSV result streams with per-job trace files
// enabled and disabled, sequential and sharded — all four combinations —
// and the trace directory holds one well-formed file per job.
func TestTracingDoesNotPerturbSweep(t *testing.T) {
	tracedSpec := func(shards int) *Spec {
		spec := testSpec()
		spec.Shards = shards
		return spec
	}
	run := func(traceDir string, shards int) (jsonl, csv []byte) {
		var jb, cb bytes.Buffer
		_, err := Run(t.Context(), tracedSpec(shards), RunOptions{
			Workers:  2,
			Sinks:    []Sink{NewJSONLSink(&jb), NewCSVSink(&cb)},
			TraceDir: traceDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes()
	}
	plainJSONL, plainCSV := run("", 0)
	dir := t.TempDir()
	tracedJSONL, tracedCSV := run(dir, 0)
	if !bytes.Equal(plainJSONL, tracedJSONL) {
		t.Fatal("enabling -trace changed the JSONL result stream")
	}
	if !bytes.Equal(plainCSV, tracedCSV) {
		t.Fatal("enabling -trace changed the CSV result stream")
	}
	for _, shards := range []int{3, runtime.GOMAXPROCS(0)} {
		shardDir := t.TempDir()
		shardedJSONL, shardedCSV := run(shardDir, shards)
		if !bytes.Equal(plainJSONL, shardedJSONL) {
			t.Fatalf("shards=%d changed the JSONL result stream", shards)
		}
		if !bytes.Equal(plainCSV, shardedCSV) {
			t.Fatalf("shards=%d changed the CSV result stream", shards)
		}
	}

	jobs, _, err := tracedSpec(0).Expand()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "job-*.jsonl"))
	if err != nil || len(files) != len(jobs) {
		t.Fatalf("trace dir holds %d files for %d jobs (err %v)", len(files), len(jobs), err)
	}
	for _, f := range files {
		checkTraceFile(t, f)
	}
}

// checkTraceFile parses one per-job trace file: every line is a typed JSON
// object, the file opens with a job record and closes with a job-end record,
// and round events (if any) are monotone from zero.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var types []string
	nextRound := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Round *int   `json:"round"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, sc.Text(), err)
		}
		if rec.Type == "round" {
			if rec.Round == nil || *rec.Round != nextRound {
				t.Fatalf("%s: round event out of order at %s", path, sc.Text())
			}
			nextRound++
		}
		types = append(types, rec.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 2 || types[0] != "job" || types[len(types)-1] != "job-end" {
		t.Fatalf("%s: not sealed job…job-end: %v", path, types)
	}
}

// TestCSVHeaderPinned pins the CSV column order: downstream analysis scripts
// parse these files by name, so column changes must be deliberate.
func TestCSVHeaderPinned(t *testing.T) {
	want := []string{
		"index", "generator", "n", "power", "algorithm", "model", "problem",
		"epsilon", "trial", "seed", "instanceSeed", "cost",
		"solutionSize", "verified", "optimum", "ratio", "rounds", "messages",
		"totalBits", "maxRoundBits", "maxRoundMessages", "bandwidth",
		"phaseISize", "fallbackJoins", "leaderPath", "leaderKernelN", "spans",
		"gatherMsgs", "error",
	}
	if !reflect.DeepEqual(csvHeader, want) {
		t.Fatalf("csvHeader changed:\n got  %v\n want %v", csvHeader, want)
	}
	// Every data record must fill exactly the header's columns, so a field
	// added to or dropped from the row without its header entry (or the
	// reverse) fails here instead of shifting every later column.
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	if err := s.Write(&JobResult{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d CSV lines, want header + one record", len(recs))
	}
	if got := len(recs[1]); got != len(csvHeader) {
		t.Fatalf("data record has %d columns, header has %d", got, len(csvHeader))
	}
}

// TestTraceFileCarriesSpansAndStack checks the per-job trace file's job-end
// record: a panicking job's error field carries the deterministic stack
// summary (function names and file:line, no addresses), and a healthy
// distributed job's spans field is non-empty.
func TestTraceFileCarriesSpansAndStack(t *testing.T) {
	algorithms["test-panic"] = &Algorithm{
		Name: "test-panic", Model: ModelCentralized, Problem: ProblemMVC,
		Run: func(context.Context, *graph.Graph, *graph.Graph, Job, obs.Tracer) (*core.Result, error) {
			panic("kaboom")
		},
	}
	defer delete(algorithms, "test-panic")

	dir := t.TempDir()
	jobs := []Job{
		{Index: 0, Generator: GeneratorSpec{Name: "connected-gnp"}, N: 16,
			Power: 2, Algorithm: "mvc-congest", Epsilon: 0.5, Seed: 3},
		{Index: 1, Generator: GeneratorSpec{Name: "path"}, N: 8,
			Power: 2, Algorithm: "test-panic", Seed: 4},
	}
	rep, err := RunJobs(t.Context(), jobs, RunOptions{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	healthy, panicked := rep.Results[0], rep.Results[1]
	if healthy.Spans == "" || !strings.Contains(healthy.Spans, "leader-solve") {
		t.Fatalf("distributed job's span summary missing: %q", healthy.Spans)
	}
	wantErr := panicked.Error
	if !strings.Contains(wantErr, "panic: kaboom [") || !strings.Contains(wantErr, ".go:") {
		t.Fatalf("panic error lacks stack summary: %q", wantErr)
	}
	if strings.Contains(wantErr, "0x") {
		t.Fatalf("panic stack summary carries addresses: %q", wantErr)
	}
	if panicked.Metrics == nil || healthy.Metrics == nil || healthy.Metrics.WallNS <= 0 {
		t.Fatal("runner metrics not attached to results")
	}

	// The job-end record in each trace file mirrors the result's error/spans.
	for _, r := range rep.Results {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("job-%06d.jsonl", r.Index)))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var end struct {
			Type    string          `json:"type"`
			Error   string          `json:"error"`
			Spans   string          `json:"spans"`
			Metrics *obs.JobMetrics `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil {
			t.Fatal(err)
		}
		if end.Type != "job-end" || end.Error != r.Error || end.Spans != r.Spans {
			t.Fatalf("job-end record diverges from result: %+v vs %+v", end, r)
		}
		if end.Metrics == nil || end.Metrics.Goroutines <= 0 {
			t.Fatalf("job-end record missing runtime metrics: %s", lines[len(lines)-1])
		}
	}
}
