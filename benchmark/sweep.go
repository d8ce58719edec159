package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"powergraph/internal/bitset"
	"powergraph/internal/centralized"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/kernel"
	"powergraph/internal/verify"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// sweepWorkers is the harness worker count of the sweeps: one per core of
// the two-core machine the bounds were calibrated on.
const sweepWorkers = 2

// referenceSeed is the root seed of a sweep's reference pass, for its
// instances and its algorithms' random choices alike. It does not depend on
// the run's seed, so the reference pass computes the same solutions in every
// run and its summed cost is comparable between runs and commits.
const referenceSeed = 1 << 40

// datasetSeed fixes a sweep's instances. Like the resident graph of a
// serving workload, they are part of the workload: the run's seed draws
// only the algorithms' random choices. So runs on different seeds solve the
// same graphs, and the spread between them is not that of the graphs.
const datasetSeed = 7

// instanceSets is how many instance sets a sweep run cycles through; the
// run's metrics cover that many instances of every cell. Set k expands the
// specs with instances from root seed datasetSeed<<20 + k and algorithm
// seeds from the run's seed<<20 + k.
const instanceSets = 4

// sweep is a closed-loop workload: the jobs of one or more harness specs,
// run pass after pass on sweepWorkers workers until the run's time is up.
// Pass p runs instance set p mod instanceSets, so every set runs several
// times, and a run always ends on a whole pass.
type sweep struct {
	name  string
	specs []string
	// ratioBound is the largest approximation ratio each algorithm may show
	// against the exact oracle.
	ratioBound map[string]float64
}

var (
	// sweepCongest is engine-heavy: message-bound (mvc-clique-det) and
	// round-bound (mds-congest) jobs beside the sparsified r = 3 gather, with
	// a leader whose kernel has a few dozen vertices. A pass holds five
	// cells, one job each. The slowest cell, mds-congest, is a fifth of the
	// jobs, so p95 falls inside it rather than between two cells.
	sweepCongest = sweep{name: "sweep-congest", specs: []string{"sweep-congest.json", "sweep-congest-mds.json"}}
	// sweepKernel is kernel-heavy with little engine work: the oracle's
	// reduction rules on large trees, and the leader's branch-and-bound
	// search on mvc-clique-rand. The two oracle jobs open every pass, so the
	// two workers always run them side by side and the memory peak they set
	// is the same in every pass.
	sweepKernel = sweep{
		name:       "sweep-kernel",
		specs:      []string{"sweep-kernel-oracle.json", "sweep-kernel-search.json"},
		ratioBound: map[string]float64{"gavril": 2},
	}
)

// tinyN caps every size under the smoke test's tiny scale.
const tinyN = 40

func loadSpec(file string, tiny bool) (*harness.Spec, error) {
	b, err := workloadFiles.ReadFile("workloads/" + file)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s harness.Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: trailing content after spec (next token %v)", file, tok)
	}
	if tiny {
		for i := range s.Sizes {
			s.Sizes[i] = min(s.Sizes[i], tinyN)
		}
	}
	return &s, s.Validate()
}

// passJobs expands every spec for one pass and numbers the jobs 0..n-1. The
// graph instances come from the expansion under root seed instances, the
// algorithms' seeds from the expansion under root seed algorithms (the
// harness derives the two independently, and the job lists line up).
func passJobs(specs []*harness.Spec, instances, algorithms int64) ([]harness.Job, error) {
	var jobs []harness.Job
	for _, s := range specs {
		a, b := *s, *s
		a.RootSeed, b.RootSeed = instances, algorithms
		ja, _, err := a.Expand()
		if err != nil {
			return nil, err
		}
		jb, _, err := b.Expand()
		if err != nil {
			return nil, err
		}
		for i, j := range ja {
			j.Seed = jb[i].Seed
			j.Index = len(jobs)
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// runPass runs one pass's jobs through harness.RunJobs on sweepWorkers
// workers.
func runPass(ctx context.Context, jobs []harness.Job) (*harness.Report, error) {
	rep, err := harness.RunJobs(ctx, jobs, harness.RunOptions{Workers: sweepWorkers})
	if err != nil {
		return nil, err
	}
	if len(rep.Results) != len(jobs) {
		return nil, fmt.Errorf("%d of %d jobs returned", len(rep.Results), len(jobs))
	}
	return rep, nil
}

func instanceSeed(j harness.Job) int64 {
	if j.InstanceSeed != 0 {
		return j.InstanceSeed
	}
	return j.Seed
}

func oracleOn(j harness.Job) bool { return j.OracleN > 0 && j.N <= j.OracleN }

func (sw sweep) run(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult(sw.name, cfg)
	var specs []*harness.Spec
	for _, f := range sw.specs {
		s, err := loadSpec(f, cfg.tiny)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}

	// Set-up is the reference pass: the specs expanded under referenceSeed
	// and run once on sweepWorkers workers, which also warms the heap before
	// the measured passes. Its summed cost is cost_sum, the quality guard:
	// the same jobs in every run, so any change in it is a change in the
	// solutions. It is timed before, midway through and after the measured
	// passes, and every repetition must return the same costs.
	var setups []float64
	var refCosts []int64
	setup := func() error {
		t := time.Now()
		jobs, err := passJobs(specs, referenceSeed, referenceSeed)
		if err != nil {
			return err
		}
		rep, err := runPass(ctx, jobs)
		if err != nil {
			return fmt.Errorf("reference pass: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		var cost int64
		for i := range rep.Results {
			sw.check(res, &rep.Results[i])
			cost += rep.Results[i].Cost
		}
		res.Attempted += len(rep.Results)
		if len(refCosts) > 0 && cost != refCosts[0] {
			res.Failed++
			res.problem("reference pass %d: summed cost %d, the first reference pass %d", len(refCosts), cost, refCosts[0])
		}
		refCosts = append(refCosts, cost)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	sets := make([][]harness.Job, instanceSets)
	for k := range sets {
		js, err := passJobs(specs, datasetSeed<<20+int64(k), cfg.seed<<20+int64(k))
		if err != nil {
			return nil, err
		}
		sets[k] = js
	}
	var jobs []harness.Job
	var results []harness.JobResult
	var lat []float64 // every measured job's latency
	first := make([][]harness.JobResult, instanceSets)
	var busy, wall, cpu time.Duration
	passes := 0
	start := time.Now()
	for ; passes < instanceSets || wall < budget; passes++ {
		k := passes % instanceSets
		c, t := cpuTime(), time.Now()
		rep, err := runPass(ctx, sets[k])
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", passes, err)
		}
		wall += time.Since(t)
		cpu += cpuTime() - c
		if first[k] == nil {
			first[k] = rep.Results
		}
		for i := range rep.Results {
			r := &rep.Results[i]
			lat = append(lat, ms(r.Elapsed))
			busy += r.Elapsed
			sw.check(res, r)
			sameResult(res, r, &first[k][i])
		}
		jobs = append(jobs, sets[k]...)
		results = append(results, rep.Results...)
		if len(setups) == 1 && time.Since(start) >= budget/2 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}
	if err := setup(); err != nil {
		return nil, err
	}
	res.Attempted += len(results)
	res.Detail["setupSeconds"] = slices.Clone(setups)
	res.Detail["referenceCost"] = refCosts[0]
	res.set("setup_s", median(setups))
	res.set("cost_sum", float64(refCosts[0]))

	res.Detail["jobs"] = len(results)
	res.Detail["passes"] = passes
	res.Detail["wallSeconds"] = wall.Seconds()
	res.Detail["utilization"] = ratio(float64(busy), float64(wall)*sweepWorkers)
	res.set("op_p50_ms", quantile(lat, 0.50))
	res.set("op_p95_ms", quantile(lat, 0.95))
	res.set("cpu_ms_per_op", ms(cpu)/float64(len(lat)))
	res.set("harness.utilization", ratio(float64(busy), float64(wall)*sweepWorkers))

	if cfg.trace {
		if err := sw.traced(ctx, cfg, res, jobs, len(jobs)/passes, results, busy); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check applies the sweep's correctness gate to one job result.
func (sw sweep) check(res *result, r *harness.JobResult) {
	switch {
	case r.Error != "":
		res.Failed++
		res.problem("job %s n=%d r=%d: %s", r.Algorithm, r.N, r.Power, r.Error)
	case !r.Verified:
		res.Failed++
		res.problem("job %s n=%d r=%d: solution is not feasible on Gʳ", r.Algorithm, r.N, r.Power)
	case r.Optimum >= 0 && sw.ratioBound[r.Algorithm] > 0 && r.Ratio > sw.ratioBound[r.Algorithm]:
		res.Failed++
		res.problem("job %s n=%d r=%d: ratio %.4f above the bound %g", r.Algorithm, r.N, r.Power, r.Ratio, sw.ratioBound[r.Algorithm])
	}
}

// sameResult checks that a repeat of a job reproduced the job's first result.
func sameResult(res *result, got, want *harness.JobResult) {
	if got.Cost != want.Cost || got.SolutionSize != want.SolutionSize || got.Optimum != want.Optimum ||
		got.Rounds != want.Rounds || got.Messages != want.Messages || got.TotalBits != want.TotalBits {
		res.Failed++
		res.problem("job %s n=%d r=%d: a repeat differs from the first run: cost %d/%d rounds %d/%d messages %d/%d",
			got.Algorithm, got.N, got.Power, got.Cost, want.Cost, got.Rounds, want.Rounds, got.Messages, want.Messages)
	}
}

// traced re-executes the measured jobs, timing each layer around the call
// into it, and checks that every traced job reproduces its untraced result.
// It runs them pass by pass on sweepWorkers workers, as harness.RunJobs ran
// them, so that traced and untraced jobs share the cores with the same
// number of other jobs.
func (sw sweep) traced(ctx context.Context, cfg runConfig, res *result, jobs []harness.Job, perPass int, untraced []harness.JobResult, untracedBusy time.Duration) error {
	rec := newRecorder()
	counts := &solveCounts{}
	var mu sync.Mutex
	var tracedBusy time.Duration
	var maxGap time.Duration

	for lo := 0; lo < len(jobs); lo += perPass {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(sweepWorkers)
		for w := 0; w < sweepWorkers; w++ {
			go func() {
				defer wg.Done()
				var lastEnd time.Time
				for i := range next {
					if !lastEnd.IsZero() {
						gap := time.Since(lastEnd)
						mu.Lock()
						maxGap = max(maxGap, gap)
						mu.Unlock()
					}
					d, problem := traceJob(ctx, rec, counts, int64(i), jobs[i], &untraced[i])
					lastEnd = time.Now()
					mu.Lock()
					tracedBusy += d
					if problem != "" {
						res.Failed++
						res.problem("traced job %d (%s n=%d r=%d): %s", i, jobs[i].Algorithm, jobs[i].N, jobs[i].Power, problem)
					}
					mu.Unlock()
				}
			}()
		}
		for i := lo; i < lo+perPass; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
			}
		}
		close(next)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	res.Attempted += len(jobs)

	setSolveLayers(res, rec, counts)
	res.set("bench.sched_late_ms.max", ms(maxGap))
	res.set("bench.trace_overhead_frac", ratio(float64(tracedBusy), float64(untracedBusy))-1)
	return rec.write(cfg.outDir, sw.name)
}

// traceJob runs one job the way the traced variant times it — instance
// build, Gʳ, harness.SolveInstance with the engine tracer, and the exact
// oracle when the job asks for it — and compares the outcome with the
// untraced run's result. It returns the job's traced duration (the same
// stages the untraced job's Elapsed covers) and a problem description, if
// any. The feasibility check is timed after the job, on a reference
// solution of the same problem, because SolveInstance does not return its
// solution.
func traceJob(ctx context.Context, rec *recorder, counts *solveCounts, op int64, job harness.Job, want *harness.JobResult) (time.Duration, string) {
	root := rec.start("harness.job", op, 0)
	var g, power *graph.Graph
	var err error
	rec.timed("graph.build", op, root.id, func() {
		g, err = job.Generator.Build(job.N, rand.New(rand.NewSource(instanceSeed(job))))
	})
	if err != nil {
		root.end()
		return 0, err.Error()
	}
	rec.timed("graph.power", op, root.id, func() { power = g.Power(job.Power) })
	got, opt := tracedSolve(ctx, rec, counts, op, root.id, g, power, job, oracleOn(job))
	d := root.end()

	if !timeVerify(rec, op, power, got.Problem) {
		return d, "reference solution failed verification"
	}
	switch {
	case got.Error != "":
		return d, got.Error
	case got.Cost != want.Cost || got.SolutionSize != want.SolutionSize ||
		got.Rounds != want.Rounds || got.Messages != want.Messages || got.TotalBits != want.TotalBits:
		return d, fmt.Sprintf("differs from the untraced run: cost %d/%d size %d/%d rounds %d/%d messages %d/%d bits %d/%d",
			got.Cost, want.Cost, got.SolutionSize, want.SolutionSize, got.Rounds, want.Rounds,
			got.Messages, want.Messages, got.TotalBits, want.TotalBits)
	case opt != want.Optimum:
		return d, fmt.Sprintf("oracle optimum %d differs from the untraced run's %d", opt, want.Optimum)
	}
	return d, ""
}

// tracedSolve runs harness.SolveInstance with the benchmark's engine tracer
// under a harness.solve span, then, when oracle is set, the exact oracle
// under a kernel.oracle span. It returns the result and the optimum (-1
// without the oracle).
func tracedSolve(ctx context.Context, rec *recorder, counts *solveCounts, op, parent int64, g, power *graph.Graph, job harness.Job, oracle bool) (*harness.JobResult, int64) {
	s := rec.start("harness.solve", op, parent)
	tr := newEngineTracer(rec, op, s.id)
	job.OracleN = 0
	jr := harness.SolveInstance(ctx, g, power, job, tr, nil)
	s.end()
	counts.add(jr.Rounds, jr.Messages, jr.TotalBits, tr.kernels)
	opt := int64(-1)
	if oracle && jr.Error == "" {
		rec.timed("kernel.oracle", op, parent, func() {
			solver := kernel.NewSolver(kernel.Config{MaxNodes: -1})
			var sol *bitset.Set
			if jr.Problem == harness.ProblemMDS {
				sol, _ = solver.DominatingSet(power)
			} else {
				sol, _ = solver.VertexCover(power)
			}
			opt = verify.Cost(power, sol)
		})
	}
	return jr, opt
}

// timeVerify times the feasibility check of the verify layer on a
// reference solution of the problem (a Gavril cover for vertex cover, the
// greedy dominating set for dominating set), reporting whether it passed.
func timeVerify(rec *recorder, op int64, power *graph.Graph, problem string) bool {
	var ref *bitset.Set
	rec.timed("bench.reference", op, 0, func() {
		if problem == harness.ProblemMDS {
			ref = exact.GreedyDominatingSet(power)
		} else {
			ref = centralized.Gavril2Approx(power)
		}
	})
	var ok bool
	rec.timed("verify", op, 0, func() {
		if problem == harness.ProblemMDS {
			ok, _ = verify.IsDominatingSet(power, ref)
		} else {
			ok, _ = verify.IsVertexCover(power, ref)
		}
	})
	return ok
}
