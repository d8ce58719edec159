package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
	"powergraph/internal/kernel"
	"powergraph/internal/obs"
	"powergraph/internal/verify"
)

// JobResult is one executed job's measurements.  Every field that is
// serialized is a pure function of the Job, so JSONL output is reproducible;
// wall-clock duration is kept out of the serialized form on purpose.
type JobResult struct {
	Index     int           `json:"index"`
	Generator GeneratorSpec `json:"generator"`
	N         int           `json:"n"`
	Power     int           `json:"power"`
	Algorithm string        `json:"algorithm"`
	Model     string        `json:"model"`
	Problem   string        `json:"problem"`
	Epsilon   float64       `json:"epsilon,omitempty"`
	// Gather is the generalized Phase-II gather mode the job ran with
	// (empty = the sparsified default; see Spec.Gathers).
	Gather string `json:"gather,omitempty"`
	Trial  int    `json:"trial"`
	Seed   int64  `json:"seed"`
	// InstanceSeed is the seed that generated the graph (see
	// Job.InstanceSeed); omitted for hand-built jobs that use Seed.
	InstanceSeed int64 `json:"instanceSeed,omitempty"`

	// Cost is the solution's weight on the power graph Gʳ.
	Cost int64 `json:"cost"`
	// SolutionSize is the solution's cardinality.
	SolutionSize int `json:"solutionSize"`
	// Verified reports the feasibility check (cover / domination on Gʳ).
	Verified bool `json:"verified"`
	// Optimum is the exact optimum when n ≤ OracleN, else -1.
	Optimum int64 `json:"optimum"`
	// Ratio is Cost/Optimum when the oracle ran, else 0.
	Ratio float64 `json:"ratio,omitempty"`

	// Simulator accounting (zero for centralized baselines).
	Rounds           int   `json:"rounds"`
	Messages         int64 `json:"messages"`
	TotalBits        int64 `json:"totalBits"`
	MaxRoundBits     int64 `json:"maxRoundBits"`
	MaxRoundMessages int64 `json:"maxRoundMessages"`
	Bandwidth        int   `json:"bandwidth"`
	// PhaseISize is Algorithm 1's committed set S (-1 when not applicable).
	PhaseISize int `json:"phaseISize"`
	// FallbackJoins is Theorem 28's feasibility-fallback count.
	FallbackJoins int `json:"fallbackJoins"`
	// LeaderPath is the Phase-II leader-solve path taken by the default
	// kernelize-then-solve solver ("direct", "kernel-exact",
	// "kernel-fallback"; empty for custom solvers and non-leader runs), and
	// LeaderKernelN the kernel size it branched on. Deterministic per job,
	// so the fields survive the byte-identical JSONL contract.
	LeaderPath    string `json:"leaderPath,omitempty"`
	LeaderKernelN int    `json:"leaderKernelN,omitempty"`
	// Spans is the deterministic phase-span summary collected by the
	// always-attached span-only tracer: "name*count:rounds" entries ordered
	// by first-begin round (see obs.Collector.SpanSummary). Empty for
	// centralized baselines.
	Spans string `json:"spans,omitempty"`
	// GatherMsgs is the network message count of the Phase-II gather alone:
	// the traffic inside the phase2-sparsify / phase2-near / phase2-gather
	// spans (from the engines' round-boundary snapshots, see
	// obs.Collector.SpanMessages). It isolates the cost the gather axis
	// varies — Phase I dwarfs it in Messages — and is deterministic per
	// seed, so it lives in the serialized record. Zero when the algorithm
	// has no gather stage (MDS, centralized, r = 2's F-edge path).
	GatherMsgs int64 `json:"gatherMsgs,omitempty"`

	// Error is set when the job failed (including recovered panics, which
	// carry a deterministic stack summary); all measurement fields are zero
	// in that case.
	Error string `json:"error,omitempty"`

	// Canceled marks a job whose run was aborted by context cancellation
	// (congest.ErrCanceled) rather than by a fault of its own. RunJobs drops
	// canceled in-flight results from the report — a canceled sweep keeps
	// only what completed — so the field never reaches serialized output.
	Canceled bool `json:"-"`
	// Shards is the shard count the job ran with. Deliberately not
	// serialized — sweeps at any shard count must stay byte-identical —
	// but it does split aggregation cells, so a shard-count sweep's BENCH
	// summary compares wall clocks per count (the mega sweep's scaling
	// curve).
	Shards int `json:"-"`
	// Elapsed is the job's wall-clock duration.  It is intentionally not
	// serialized: timing is machine-dependent and would break the
	// byte-identical-output determinism contract.
	Elapsed time.Duration `json:"-"`
	// Metrics is the per-job runner metrics record (queue latency, wall
	// time, runtime/metrics snapshot). Wall-clock and machine state, so like
	// Elapsed it never enters serialized output, and differential tests
	// neutralize it before comparing.
	Metrics *obs.JobMetrics `json:"-"`
}

// cellKey groups results into scenario cells for aggregation. Unlike
// Job.cellKey (the seed-derivation key), it includes the gather mode and
// the shard count, so a two-gather or multi-shard sweep aggregates each
// mode's measurements into separate, comparable cells.
func (r *JobResult) cellKey() string {
	return fmt.Sprintf("%s|gm=%s|sh=%d",
		scenarioKey(r.Generator, r.N, r.Power, r.Algorithm, r.Epsilon), r.Gather, r.Shards)
}

// Progress is delivered once per completed job, in emission (job-index)
// order, from a single goroutine.
type Progress struct {
	Done   int // jobs emitted so far, including this one
	Total  int
	Result *JobResult
}

// RunOptions tunes a harness run.
type RunOptions struct {
	// Workers is the worker-pool size (≤0 → GOMAXPROCS).
	Workers int
	// Sinks receive every result in job-index order.  Sink errors abort
	// the run.
	Sinks []Sink
	// OnProgress, when non-nil, is called after each result is emitted.
	OnProgress func(Progress)
	// TraceDir, when non-empty, writes one JSONL trace file per job
	// (job-<index>.jsonl) into the directory, creating it if needed. Each
	// file carries the job header, every engine/kernel trace event, and a
	// job-end record with the runner metrics.
	TraceDir string
}

func (o *RunOptions) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Report is the outcome of a run: per-job results (in job-index order,
// possibly a subset under cancellation), their per-cell aggregation, and
// expansion diagnostics.
type Report struct {
	Spec    *Spec         `json:"spec,omitempty"`
	Results []JobResult   `json:"results"`
	Cells   []CellSummary `json:"cells"`
	Skipped []string      `json:"skipped,omitempty"`
	// Completed and Failed partition Results.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Elapsed is the whole run's wall-clock time (not deterministic).
	Elapsed time.Duration `json:"-"`
	// Utilization is the worker pool's duty cycle: summed per-job wall time
	// over workers × run wall time. Wall-clock, so never serialized.
	Utilization float64 `json:"-"`
}

// Run expands the spec and executes every job across the worker pool.
// On context cancellation it returns ctx.Err() alongside a report holding
// the results completed before the cut, flushed to the sinks in index order.
func Run(ctx context.Context, spec *Spec, opts RunOptions) (*Report, error) {
	jobs, expRep, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opts.TraceDir == "" {
		opts.TraceDir = spec.TraceDir
	}
	report, err := RunJobs(ctx, jobs, opts)
	if report != nil {
		report.Spec = spec
		report.Skipped = expRep.Skipped
	}
	return report, err
}

// RunJobs executes an explicit job list (the layer presets like
// cmd/experiments use to pin seeds exactly).  Results are emitted to sinks
// and the progress callback in ascending Job.Index order regardless of
// worker interleaving — this is what makes output byte-identical across
// worker counts.  Job indices must be unique; emission order is the sorted
// index order, with gaps allowed (cancellation, sparse hand-built lists).
func RunJobs(ctx context.Context, jobs []Job, opts RunOptions) (*Report, error) {
	start := time.Now()
	workers := opts.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	// rank[pos] is the emission slot of the job at slice position pos:
	// ascending Job.Index order, whatever order the slice arrived in.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return jobs[order[a]].Index < jobs[order[b]].Index })
	rank := make([]int, len(jobs))
	for k, pos := range order {
		if k > 0 && jobs[pos].Index == jobs[order[k-1]].Index {
			return nil, fmt.Errorf("harness: duplicate job index %d", jobs[pos].Index)
		}
		rank[pos] = k
	}

	// A sink failure cancels this inner context so the feeder and workers
	// stop immediately instead of computing results nobody will read.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()

	type ranked struct {
		rank int
		res  *JobResult
	}
	jobCh := make(chan int)
	resCh := make(chan ranked)

	// One oracle cache per run: every job that needs the exact optimum of
	// the same instance — all algorithms of one scenario cell share
	// (generator, n, power, seed) — reuses a single exponential solve.
	oracle := newOracleCache()
	exec := &jobExec{oracle: oracle, traceDir: opts.TraceDir, runStart: start}
	if exec.traceDir != "" {
		if err := os.MkdirAll(exec.traceDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: trace dir: %w", err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for pos := range jobCh {
				res := exec.run(runCtx, jobs[pos])
				if res.Canceled {
					// The engine aborted mid-run on runCtx; the job produced
					// no measurement, so it must not enter the report (a
					// canceled sweep keeps exactly what completed).
					continue
				}
				select {
				case resCh <- ranked{rank[pos], res}:
				case <-runCtx.Done():
					return
				}
			}
		}()
	}

	// Feeder: stops handing out work as soon as the run is cancelled.
	go func() {
		defer close(jobCh)
		for pos := range jobs {
			select {
			case jobCh <- pos:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Collector: reorder buffer keyed by emission rank so results flow to
	// sinks in Job.Index order even though workers finish out of order.
	pending := make(map[int]*JobResult, workers)
	next := 0
	var emitted []JobResult
	emit := func(r *JobResult) error {
		emitted = append(emitted, *r)
		for _, s := range opts.Sinks {
			if err := s.Write(r); err != nil {
				return fmt.Errorf("harness: sink: %w", err)
			}
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Done: len(emitted), Total: len(jobs), Result: r})
		}
		return nil
	}

	var sinkErr error
	for ir := range resCh {
		pending[ir.rank] = ir.res
		for sinkErr == nil {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			sinkErr = emit(r)
		}
		if sinkErr != nil {
			break
		}
	}
	if sinkErr != nil {
		// Stop the feeder and workers, then drain what's in flight.
		stopRun()
		for range resCh {
		}
		return nil, sinkErr
	}

	// Under cancellation some completed results may sit beyond a gap in the
	// buffer; flush them too, still in ascending index order, so partial
	// runs lose nothing that finished.
	if len(pending) > 0 {
		rest := make([]int, 0, len(pending))
		for rk := range pending {
			rest = append(rest, rk)
		}
		sort.Ints(rest)
		for _, rk := range rest {
			if err := emit(pending[rk]); err != nil {
				return nil, err
			}
		}
	}

	report := &Report{
		Results: emitted,
		Cells:   Aggregate(emitted),
		Elapsed: time.Since(start),
	}
	var busy time.Duration
	for i := range emitted {
		busy += emitted[i].Elapsed
		if emitted[i].Error != "" {
			report.Failed++
		} else {
			report.Completed++
		}
	}
	if report.Elapsed > 0 && workers > 0 {
		report.Utilization = float64(busy) / (float64(report.Elapsed) * float64(workers))
	}
	return report, ctx.Err()
}

// oracleKey identifies one instance for oracle memoization: the generator
// (including parameters), n, power and seed pin the graph Gʳ exactly, and
// the problem picks the solver.
type oracleKey struct {
	gen     string
	n       int
	power   int
	seed    int64
	problem string
}

// oracleCache memoizes exact-oracle optima across the jobs of one run.
// Entries resolve through a per-key sync.Once, so concurrent workers
// hitting the same instance block on one exponential solve instead of
// duplicating it; the cached value is a pure function of the key, which
// keeps results independent of worker interleaving.
type oracleCache struct {
	mu sync.Mutex
	m  map[oracleKey]*oracleEntry
	// solves counts solver-closure invocations — exactly one per distinct
	// key, however many jobs share the instance (tested by
	// TestOracleCacheSolvesOncePerInstance).
	solves atomic.Int64
}

type oracleEntry struct {
	once sync.Once
	opt  int64
}

func newOracleCache() *oracleCache {
	return &oracleCache{m: make(map[oracleKey]*oracleEntry)}
}

// optimum returns the memoized optimum for key, computing it with solve on
// first use. A nil cache (direct executeJob calls in tests) just solves.
func (c *oracleCache) optimum(key oracleKey, solve func() int64) int64 {
	if c == nil {
		return solve()
	}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &oracleEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.solves.Add(1)
		e.opt = solve()
	})
	return e.opt
}

// jobExec is the per-run execution context the workers share: the oracle
// cache, the trace directory, and the run start time that per-job queue
// latency is measured against.
type jobExec struct {
	oracle   *oracleCache
	traceDir string
	runStart time.Time
}

// executeJob runs one job with a fresh execution context (no tracing to
// disk) — the entry point the differential and registry tests use; RunJobs
// routes workers through one shared jobExec instead.
func executeJob(job Job, oracle *oracleCache) *JobResult {
	return (&jobExec{oracle: oracle, runStart: time.Now()}).run(context.Background(), job)
}

// OracleCache memoizes exact-oracle optima across SolveInstance calls, the
// way RunJobs shares one cache across a sweep's workers. The type is opaque
// to other packages: construct with NewOracleCache, pass to SolveInstance.
type OracleCache = oracleCache

// NewOracleCache returns an empty oracle cache safe for concurrent use.
func NewOracleCache() *OracleCache { return newOracleCache() }

// SolveInstance runs one job's algorithm on an already-built instance —
// g with its pre-materialized power graph — and returns the same JobResult
// a sweep would produce for that (instance, job) pair: algorithm stats,
// feasibility verification, and (when job.OracleN allows) the exact-oracle
// ratio through the shared cache. This is the serving layer's entry point:
// the server holds graphs resident and cannot go through generator
// expansion, but must produce byte-identical results to a fresh
// build-and-solve.
//
// ctx cancels an in-flight distributed run at its next round barrier
// (Canceled is set on the result). tr receives the run's trace events; when
// it is an *obs.Collector the result's Spans/GatherMsgs fields are filled
// from it, as jobExec.run fills them for sweep jobs. Panics are isolated
// into the Error field. oracle may be nil (each oracle consult then solves).
func SolveInstance(ctx context.Context, g, power *graph.Graph, job Job, tr obs.Tracer, oracle *OracleCache) (out *JobResult) {
	start := time.Now()
	out = newJobResult(job)
	defer func() {
		out.Elapsed = time.Since(start)
		if col, ok := tr.(*obs.Collector); ok && col != nil {
			out.Spans = col.SpanSummary()
			spanMsgs := col.SpanMessages()
			out.GatherMsgs = spanMsgs["phase2-sparsify"] + spanMsgs["phase2-near"] + spanMsgs["phase2-gather"]
		}
	}()
	defer func() {
		if rec := recover(); rec != nil {
			*out = *newJobResult(job)
			out.Error = fmt.Sprintf("panic: %v [%s]", rec, obs.StackSummary(1, 6))
		}
	}()
	fillSolve(ctx, out, g, power, job, tr, oracle)
	return out
}

// newJobResult seeds a JobResult with the job's coordinates and the "not
// measured" sentinels.
func newJobResult(job Job) *JobResult {
	return &JobResult{
		Index:        job.Index,
		Generator:    job.Generator,
		N:            job.N,
		Power:        job.Power,
		Algorithm:    job.Algorithm,
		Epsilon:      job.Epsilon,
		Gather:       job.Gather,
		Trial:        job.Trial,
		Seed:         job.Seed,
		InstanceSeed: job.InstanceSeed,
		Shards:       job.Shards,
		Optimum:      -1,
	}
}

// fillSolve is the execution core shared by sweep jobs (jobExec.run) and
// resident-instance solves (SolveInstance): run the job's algorithm on the
// given graph and power graph, verify feasibility on Gʳ, record simulator
// stats, and consult the exact oracle when enabled.
func fillSolve(ctx context.Context, out *JobResult, g, power *graph.Graph, job Job, tracer obs.Tracer, oracle *oracleCache) {
	alg, ok := lookupAlgorithm(job.Algorithm)
	if !ok {
		out.Error = fmt.Sprintf("unknown algorithm %q", job.Algorithm)
		return
	}
	if err := CheckEngine(job.Engine); err != nil {
		out.Error = err.Error()
		return
	}
	out.Model = alg.Model
	out.Problem = alg.Problem

	res, err := alg.Run(ctx, g, power, job, tracer)
	if err != nil {
		out.Error = err.Error()
		out.Canceled = errors.Is(err, congest.ErrCanceled)
		return
	}

	out.Cost = verify.Cost(power, res.Solution)
	out.SolutionSize = res.Solution.Count()
	switch alg.Problem {
	case ProblemMDS:
		out.Verified, _ = verify.IsDominatingSet(power, res.Solution)
	default:
		out.Verified, _ = verify.IsVertexCover(power, res.Solution)
	}
	out.Rounds = res.Stats.Rounds
	out.Messages = res.Stats.Messages
	out.TotalBits = res.Stats.TotalBits
	out.MaxRoundBits = res.Stats.MaxRoundBits
	out.MaxRoundMessages = res.Stats.MaxRoundMessages
	out.Bandwidth = res.Stats.Bandwidth
	out.PhaseISize = res.PhaseISize
	out.FallbackJoins = res.FallbackJoins
	if res.LeaderSolve != nil {
		out.LeaderPath = res.LeaderSolve.Path
		out.LeaderKernelN = res.LeaderSolve.KernelN
	}

	if job.OracleN > 0 && job.N <= job.OracleN {
		key := oracleKey{
			gen: job.Generator.Key(), n: job.N, power: job.Power,
			seed: job.instanceSeed(), problem: alg.Problem,
		}
		var opt int64
		switch {
		case alg.Exact:
			// The algorithm's own output is the optimum — don't pay the
			// exponential solve a second time, and seed the cache for the
			// other algorithms on this instance.
			opt = oracle.optimum(key, func() int64 { return out.Cost })
		case alg.Problem == ProblemMDS:
			opt = oracle.optimum(key, func() int64 {
				return verify.Cost(power, kernel.DominatingSet(power))
			})
		default:
			opt = oracle.optimum(key, func() int64 {
				return verify.Cost(power, kernel.VertexCover(power))
			})
		}
		out.Optimum = opt
		out.Ratio = verify.RatioOf(out.Cost, opt).Value
	}
}

// run executes one job start to finish: build the instance from the job's
// seed, run the algorithm, verify feasibility on Gʳ, and consult the exact
// oracle when enabled.  Panics anywhere inside are isolated into the
// result's Error field — with a deterministic stack summary — so one bad
// cell cannot take down a sweep. A span-only obs.Collector is attached to
// every job (JobResult.Spans); with a trace directory, a JSONLWriter
// streams the full event feed to job-<index>.jsonl alongside it.
func (x *jobExec) run(ctx context.Context, job Job) (out *JobResult) {
	start := time.Now()
	out = newJobResult(job)

	col := &obs.Collector{}
	var tracer obs.Tracer = col
	var tw *obs.JSONLWriter
	var tf *os.File
	if x.traceDir != "" {
		f, err := os.Create(filepath.Join(x.traceDir, fmt.Sprintf("job-%06d.jsonl", job.Index)))
		if err != nil {
			out.Error = fmt.Sprintf("trace: %v", err)
			return out
		}
		tf, tw = f, obs.NewJSONLWriter(f)
		tracer = obs.Multi{tw, col}
		tw.Emit("job", &job)
	}

	// Finish hook: registered before the panic recovery below, so it runs
	// last and sees the recovered result. It stamps the wall-clock fields,
	// the span summary, and the runtime snapshot, then seals the trace file
	// with a job-end record.
	defer func() {
		out.Elapsed = time.Since(start)
		out.Spans = col.SpanSummary()
		spanMsgs := col.SpanMessages()
		out.GatherMsgs = spanMsgs["phase2-sparsify"] + spanMsgs["phase2-near"] + spanMsgs["phase2-gather"]
		snap := obs.ReadRuntime()
		out.Metrics = &obs.JobMetrics{
			QueueNS:    start.Sub(x.runStart).Nanoseconds(),
			WallNS:     out.Elapsed.Nanoseconds(),
			HeapBytes:  snap.HeapBytes,
			AllocBytes: snap.AllocBytes,
			GCCycles:   snap.GCCycles,
			Goroutines: snap.Goroutines,
		}
		if tw != nil {
			tw.Emit("job-end", struct {
				Error   string          `json:"error,omitempty"`
				Spans   string          `json:"spans,omitempty"`
				Metrics *obs.JobMetrics `json:"metrics"`
			}{out.Error, out.Spans, out.Metrics})
			tw.Close()
			tf.Close()
		}
	}()
	defer func() {
		if rec := recover(); rec != nil {
			*out = *newJobResult(job)
			out.Shards = 0
			out.Error = fmt.Sprintf("panic: %v [%s]", rec, obs.StackSummary(1, 6))
		}
	}()

	rng := rand.New(rand.NewSource(job.instanceSeed()))
	g, err := job.Generator.Build(job.N, rng)
	if err != nil {
		out.Error = err.Error()
		return out
	}

	// Materialize Gʳ once: the centralized baselines run on it, and the
	// feasibility check and oracle below need it either way.
	power := g.Power(job.Power)
	fillSolve(ctx, out, g, power, job, tracer, x.oracle)
	return out
}
