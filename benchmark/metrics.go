package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// metricDef is one reported metric. The two tables below mirror the
// end_to_end and per_layer lists of BENCHMARK.json at the repository root;
// TestMetricTablesMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. An "op" is one sweep job or one HTTP
// request; request latency runs from the request's due time. The latency and
// CPU metrics cover every op the run measured. cost_sum is the summed
// solution weight of a fixed set of solves that is the same in every run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"cost_sum", "weight"},
}

// perLayer are the traced run's metrics. Every workload reports all of them;
// a share or count of a layer the workload never calls is 0. Times in ms are
// chosen so that every workload exercises them, and shares ("frac") are
// ratios of summed span durations.
var perLayer = []metricDef{
	{"bench.trace_overhead_frac", "frac"},
	{"bench.sched_late_ms.max", "ms"},
	{"harness.utilization", "frac"},
	{"graph.build_ms", "ms"},
	{"graph.power_ms", "ms"},
	{"graph.dirty_rows.r2", "count"},
	{"graph.dirty_rows.r3", "count"},
	{"graph.full_frac.r3", "frac"},
	{"graph.edges_frac.apply", "frac"},
	{"graph.edges_frac.materialize", "frac"},
	{"graph.edges_frac.incpower", "frac"},
	{"core.solve_ms", "ms"},
	{"core.phase_frac.phase1", "frac"},
	{"core.phase_frac.phase2-sparsify", "frac"},
	{"core.phase_frac.leader-elect", "frac"},
	{"core.phase_frac.bfs-tree", "frac"},
	{"core.phase_frac.phase2-gather", "frac"},
	{"core.phase_frac.leader-solve", "frac"},
	{"core.phase_frac.phase2-flood", "frac"},
	{"core.phase_frac.mds-phase", "frac"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"congest.bits", "count"},
	{"kernel.leader_frac", "frac"},
	{"kernel.reduce_frac", "frac"},
	{"kernel.search_frac", "frac"},
	{"kernel.search_nodes", "count"},
	{"kernel.kernel_n.max", "count"},
	{"kernel.fallback_frac", "frac"},
	{"kernel.oracle_frac", "frac"},
	{"verify.ms", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.conn_wait_frac", "frac"},
	{"serve.transport_frac", "frac"},
	{"serve.handler_frac.solve", "frac"},
	{"serve.handler_frac.edges", "frac"},
	{"serve.lock_wait_frac", "frac"},
}

// topPhases are the top-level phase spans of the registry's distributed
// algorithms (their nested per-iteration spans are left out);
// core.phase_frac.<name> reports each one's share of solve time. The clique
// algorithms open leader-solve inside phase2-gather, so shares can overlap.
var topPhases = []string{
	"phase1", "phase2-sparsify", "leader-elect", "bfs-tree",
	"phase2-gather", "leader-solve", "phase2-flood", "mds-phase",
}

func reportedMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	// rateScale multiplies the serving workloads' arrival rates (1 runs
	// them at their nominal rate).
	rateScale float64
	// tiny shrinks every input to a few dozen vertices and the run to a
	// fraction of a second; the smoke test uses it.
	tiny bool
}

// workload is one named load on the system.
type workload struct {
	name string
	// rate is the open-loop arrival rate of a serving workload (0 for the
	// closed-loop sweeps); it is recorded in the provenance header.
	rate float64
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{name: "sweep-congest", run: sweepCongest.run},
	{name: "sweep-kernel", run: sweepKernel.run},
	{name: "serve-read", rate: serveRead.rate, run: serveRead.run},
	{name: "serve-churn", rate: serveChurn.rate, run: serveChurn.run},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one run of one workload, as a child process reports it to the
// parent.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]any     `json:"detail,omitempty"`
}

// newResult starts a result with every metric the run reports set to 0.
func newResult(name string, cfg runConfig) *result {
	res := &result{Workload: name, Trace: cfg.trace, Metrics: map[string]float64{}, Detail: map[string]any{}}
	for _, m := range reportedMetrics(cfg.trace) {
		res.Metrics[m.name] = 0
	}
	return res
}

// maxProblems caps the recorded problem descriptions; the failed count keeps
// counting past it.
const maxProblems = 20

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// set records a metric the run reports; values of metrics the run does not
// report (per-layer values in an untraced run and vice versa) are dropped.
func (r *result) set(name string, v float64) {
	if _, ok := r.Metrics[name]; ok {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[name] = v
	}
}

// quantile is the nearest-rank q-quantile of xs (the element at
// ceil(q·n)-1 of the sorted values), the definition the serving layer's
// /v1/stats uses. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the middle value of xs (the mean of the two middle values for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
