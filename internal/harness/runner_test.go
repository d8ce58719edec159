package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"powergraph/internal/core"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runToJSONL executes the spec with the given worker count and returns the
// JSONL bytes plus the report.
func runToJSONL(t *testing.T, spec *Spec, workers int) ([]byte, *Report) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Run(context.Background(), spec, RunOptions{
		Workers: workers,
		Sinks:   []Sink{NewJSONLSink(&buf)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestDeterminismAcrossWorkerCounts is the harness's core contract: the same
// root seed yields byte-identical JSONL whether the sweep runs serially or
// across GOMAXPROCS workers, and across repeated runs.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	serial, repSerial := runToJSONL(t, spec, 1)
	again, _ := runToJSONL(t, spec, 1)
	parallel, repPar := runToJSONL(t, spec, runtime.GOMAXPROCS(0))
	if !bytes.Equal(serial, again) {
		t.Fatal("two serial runs with the same root seed differ")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serial and parallel output differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if repSerial.Failed != 0 || repPar.Failed != 0 {
		t.Fatalf("unexpected failures: serial=%d parallel=%d", repSerial.Failed, repPar.Failed)
	}
	if len(serial) == 0 {
		t.Fatal("no output produced")
	}
	// A different root seed must actually change the stream.
	other := testSpec()
	other.RootSeed = spec.RootSeed + 1
	otherOut, _ := runToJSONL(t, other, 1)
	if bytes.Equal(serial, otherOut) {
		t.Fatal("different root seeds produced identical output")
	}
}

func TestResultsVerifiedAndOracleChecked(t *testing.T) {
	_, rep := runToJSONL(t, testSpec(), 0)
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("job %d failed: %s", r.Index, r.Error)
		}
		if !r.Verified {
			t.Fatalf("job %d (%s on %s n=%d) produced an infeasible solution",
				r.Index, r.Algorithm, r.Generator.Key(), r.N)
		}
		if r.Optimum < 0 {
			t.Fatalf("job %d missing oracle optimum (OracleN=%d, n=%d)", r.Index, testSpec().OracleN, r.N)
		}
		if r.Ratio < 1-1e-9 {
			t.Fatalf("job %d reports ratio %v < 1 vs exact optimum", r.Index, r.Ratio)
		}
		if r.Algorithm == "mvc-congest" && r.Ratio > 1.5+1e-9 {
			t.Fatalf("job %d: (1+ε)=1.5 guarantee violated: ratio %v", r.Index, r.Ratio)
		}
		if r.Algorithm == "gavril" && r.Ratio > 2+1e-9 {
			t.Fatalf("job %d: Gavril 2-approx guarantee violated: ratio %v", r.Index, r.Ratio)
		}
	}
}

// TestCancellationFlushesPartialResults cancels mid-run and checks that the
// run returns context.Canceled with a clean, ordered partial result set
// flushed to the sink.
func TestCancellationFlushesPartialResults(t *testing.T) {
	spec := testSpec()
	spec.Trials = 16 // enough jobs to still be running at cancel time
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	stopAfter := 3
	rep, err := Run(ctx, spec, RunOptions{
		Workers: 2,
		Sinks:   []Sink{NewJSONLSink(&buf)},
		OnProgress: func(p Progress) {
			if p.Done == stopAfter {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return its partial report")
	}
	if len(rep.Results) < stopAfter {
		t.Fatalf("flushed %d results, want at least %d", len(rep.Results), stopAfter)
	}
	jobs, _, _ := spec.Expand()
	if len(rep.Results) == len(jobs) {
		t.Fatalf("cancellation had no effect: all %d jobs completed", len(jobs))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Results) {
		t.Fatalf("sink saw %d lines, report has %d results", len(lines), len(rep.Results))
	}
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i].Index <= rep.Results[i-1].Index {
			t.Fatalf("partial results not in ascending index order: %d after %d",
				rep.Results[i].Index, rep.Results[i-1].Index)
		}
	}
}

// TestPanicIsolation registers a deliberately panicking algorithm and checks
// that the failure is contained in its own JobResult while every other job
// still completes.
func TestPanicIsolation(t *testing.T) {
	algorithms["test-panic"] = &Algorithm{
		Name: "test-panic", Model: ModelCentralized, Problem: ProblemMVC,
		Run: func(context.Context, *graph.Graph, *graph.Graph, Job, obs.Tracer) (*core.Result, error) {
			panic("boom")
		},
	}
	defer delete(algorithms, "test-panic")

	spec := testSpec()
	spec.Algorithms = []string{"test-panic", "gavril"}
	spec.Trials = 1
	_, rep := runToJSONL(t, spec, 0)
	var panics, clean int
	for _, r := range rep.Results {
		switch r.Algorithm {
		case "test-panic":
			if !strings.Contains(r.Error, "panic: boom") {
				t.Fatalf("panic not captured: %+v", r)
			}
			panics++
		default:
			if r.Error != "" {
				t.Fatalf("healthy job poisoned: %+v", r)
			}
			clean++
		}
	}
	if panics == 0 || clean == 0 {
		t.Fatalf("want both panicking and clean jobs, got %d/%d", panics, clean)
	}
	if rep.Failed != panics || rep.Completed != clean {
		t.Fatalf("report counts wrong: %+v", rep)
	}
}

// TestRunJobsPinnedSeeds checks the preset path: explicit jobs with
// hand-picked seeds run exactly as the same call made directly.
func TestRunJobsPinnedSeeds(t *testing.T) {
	job := Job{
		Index:     0,
		Generator: GeneratorSpec{Name: "connected-gnp"},
		N:         24, Power: 2,
		Algorithm: "mvc-congest", Epsilon: 0.5,
		Seed: 42, OracleN: 24,
	}
	rep, err := RunJobs(context.Background(), []Job{job}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	// Reproduce by hand with the same seed discipline.
	rng := newTestRng(42)
	g, _ := job.Generator.Build(24, rng)
	res, err := core.ApproxMVCCongest(g, 0.5, &core.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(res.Solution.Count()); got != r.Cost {
		t.Fatalf("harness cost %d != direct run cost %d", r.Cost, got)
	}
	if res.Stats.Rounds != r.Rounds {
		t.Fatalf("harness rounds %d != direct rounds %d", r.Rounds, res.Stats.Rounds)
	}
}

// TestRunJobsEmitsInIndexOrder hands RunJobs a shuffled job slice and
// checks emission follows Job.Index, not slice position.
func TestRunJobsEmitsInIndexOrder(t *testing.T) {
	mk := func(idx, n int) Job {
		return Job{Index: idx, Generator: GeneratorSpec{Name: "path"}, N: n,
			Power: 2, Algorithm: "gavril", Seed: int64(idx)}
	}
	jobs := []Job{mk(2, 8), mk(0, 10), mk(1, 12)}
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.Index != i {
			t.Fatalf("emission position %d got index %d; want ascending Job.Index order", i, r.Index)
		}
	}
	if rep.Results[0].N != 10 || rep.Results[2].N != 8 {
		t.Fatalf("results not matched to their jobs: %+v", rep.Results)
	}
	dup := []Job{mk(1, 8), mk(1, 10)}
	if _, err := RunJobs(context.Background(), dup, RunOptions{}); err == nil {
		t.Fatal("expected error for duplicate job indices")
	}
}

func TestSinkErrorAbortsRun(t *testing.T) {
	spec := testSpec()
	_, err := Run(context.Background(), spec, RunOptions{
		Workers: 2,
		Sinks:   []Sink{failSink{}},
	})
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("want sink error, got %v", err)
	}
}

type failSink struct{}

func (failSink) Write(*JobResult) error { return errors.New("disk full") }
func (failSink) Close() error           { return nil }

// TestSolveInstanceMatchesExecuteJob: solving a pre-built instance through
// the serving entry point must serialize byte-for-byte like the sweep path
// building the same instance from the job's seed — the contract that lets
// the server hold graphs resident without perturbing results.
func TestSolveInstanceMatchesExecuteJob(t *testing.T) {
	for _, algName := range []string{"mvc-congest", "mds-congest", "gavril"} {
		job := Job{
			Generator: GeneratorSpec{Name: "connected-gnp"},
			N:         20, Power: 2,
			Algorithm: algName, Epsilon: 0.5,
			Seed: 404, Engine: "batch", OracleN: 20,
		}
		want := executeJob(job, nil)
		if want.Error != "" {
			t.Fatalf("%s: sweep path failed: %s", algName, want.Error)
		}

		rng := rand.New(rand.NewSource(job.instanceSeed()))
		g, err := job.Generator.Build(job.N, rng)
		if err != nil {
			t.Fatal(err)
		}
		col := &obs.Collector{}
		got := SolveInstance(context.Background(), g, g.Power(job.Power), job, col, NewOracleCache())
		if got.Canceled {
			t.Fatalf("%s: spurious Canceled flag", algName)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("%s: SolveInstance diverged from executeJob:\n sweep: %s\n serve: %s",
				algName, wantJSON, gotJSON)
		}
	}
}

// TestSolveInstanceCanceled: a canceled context aborts a distributed solve
// at the round barrier and flags the result as Canceled (so callers drop it)
// rather than reporting it as an algorithm fault.
func TestSolveInstanceCanceled(t *testing.T) {
	job := Job{
		Generator: GeneratorSpec{Name: "connected-gnp"},
		N:         24, Power: 2,
		Algorithm: "mvc-congest", Epsilon: 0.5,
		Seed: 7, Engine: "batch",
	}
	rng := rand.New(rand.NewSource(job.instanceSeed()))
	g, err := job.Generator.Build(job.N, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveInstance(ctx, g, g.Power(job.Power), job, nil, nil)
	if !res.Canceled {
		t.Fatalf("want Canceled, got error=%q", res.Error)
	}
	if !strings.Contains(res.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", res.Error)
	}

	// Centralized baselines have no round barrier: they run to completion
	// regardless of the context, and must not be flagged.
	job.Algorithm = "gavril"
	res = SolveInstance(ctx, g, g.Power(job.Power), job, nil, nil)
	if res.Canceled || res.Error != "" {
		t.Fatalf("centralized solve under canceled ctx: canceled=%v err=%q", res.Canceled, res.Error)
	}
}
