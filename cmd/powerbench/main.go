// Command powerbench runs a scenario matrix through the experiment harness:
// it expands a declarative spec (generators × sizes × algorithms × ε × power
// r × trials) into seeded jobs, shards them across workers, and writes
// streaming JSONL + CSV results plus an aggregated BENCH_<name>.json summary.
//
// The matrix comes either from a JSON spec file or from flags:
//
//	powerbench -spec sweep.json
//	powerbench -generators connected-gnp,random-tree,caterpillar \
//	           -sizes 32,64 -algorithms mvc-congest,mvc-clique-rand \
//	           -eps 0.5,0.25 -trials 3 -root-seed 1 -oracle-n 64 -out bench-out
//
// Identical specs (including the root seed) produce byte-identical JSONL and
// CSV regardless of -workers; only BENCH_<name>.json carries wall-clock
// timing.  Interrupting a run (SIGINT) flushes the completed prefix and
// exits cleanly.
//
// Observability: -trace <dir> writes one JSONL trace file per job (round
// events, phase spans, kernel solves — analyze with powertrace), and
// -cpuprofile / -memprofile / -pprof expose the standard Go profiling
// surfaces. None of these perturb results: the byte-identical contract
// holds with tracing on or off.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"powergraph/internal/harness"
	"powergraph/internal/kernel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list       = flag.Bool("list", false, "print the registered algorithms, generators, and local solvers, then exit")
		specPath   = flag.String("spec", "", "JSON spec file (overrides the matrix flags)")
		name       = flag.String("name", "sweep", "sweep name (labels BENCH_<name>.json)")
		generators = flag.String("generators", "connected-gnp,random-tree,caterpillar",
			"comma-separated generators ("+strings.Join(harness.GeneratorNames(), ", ")+")")
		sizes      = flag.String("sizes", "32,64", "comma-separated vertex counts")
		algorithms = flag.String("algorithms", "mvc-congest,mvc-clique-rand",
			"comma-separated algorithms ("+strings.Join(harness.AlgorithmNames(), ", ")+")")
		epsilons    = flag.String("eps", "0.5", "comma-separated ε grid")
		powers      = flag.String("powers", "2", "comma-separated graph powers r")
		trials      = flag.Int("trials", 1, "seeded repetitions per scenario cell")
		rootSeed    = flag.Int64("root-seed", 1, "root seed deriving every per-job seed")
		oracleN     = flag.Int("oracle-n", 48, "solve exactly and report ratios when n ≤ this (0 disables)")
		localSolver = flag.String("local-solver", "",
			"Phase-II leader solver ("+strings.Join(harness.LocalSolverNames(), ", ")+
				"); empty = the kernel-exact default")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0,
			"split each distributed job's round sweep across this many workers "+
				"(0 = spec value or sequential; output is byte-identical at any shard count)")
		outDir   = flag.String("out", "bench-out", "output directory")
		traceDir = flag.String("trace", "",
			"write one JSONL trace file per job (job-<index>.jsonl) into this directory; "+
				"analyze with powertrace")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the run's duration")
		quiet      = flag.Bool("quiet", false, "suppress per-job progress on stderr")
		strict     = flag.Bool("strict", false,
			"exit non-zero if any job fails, any solution fails its Gʳ feasibility check, or any "+
				"leader solve degrades to the kernel-fallback path (CI smoke gates)")
	)
	flag.Parse()

	if *list {
		printRegistry(os.Stdout)
		return nil
	}

	spec, err := buildSpec(*specPath, *name, *generators, *sizes, *algorithms,
		*epsilons, *powers, *localSolver, *trials, *rootSeed, *oracleN)
	if err != nil {
		return err
	}
	if *shards != 0 {
		// The flag pins a single count, overriding both the spec's scalar
		// and any shardCounts axis.
		spec.Shards = *shards
		spec.ShardCounts = nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() {
			// The sweep is the process's whole life; a pprof server failure
			// (port in use) should not kill the science.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "powerbench: pprof:", err)
			}
		}()
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	jsonlFile, err := os.Create(filepath.Join(*outDir, spec.Name+".jsonl"))
	if err != nil {
		return err
	}
	defer jsonlFile.Close()
	csvFile, err := os.Create(filepath.Join(*outDir, spec.Name+".csv"))
	if err != nil {
		return err
	}
	defer csvFile.Close()

	sinks := harness.MultiSink{harness.NewJSONLSink(jsonlFile), harness.NewCSVSink(csvFile)}
	opts := harness.RunOptions{Workers: *workers, Sinks: []harness.Sink{sinks}, TraceDir: *traceDir}
	if !*quiet {
		opts.OnProgress = func(p harness.Progress) {
			r := p.Result
			status := fmt.Sprintf("cost=%d rounds=%d", r.Cost, r.Rounds)
			if r.Error != "" {
				status = "ERROR " + r.Error
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s n=%d r=%d %s eps=%g trial=%d: %s\n",
				p.Done, p.Total, r.Generator.Key(), r.N, r.Power, r.Algorithm,
				r.Epsilon, r.Trial, status)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	report, runErr := harness.Run(ctx, spec, opts)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	if err := sinks.Close(); err != nil {
		return err
	}

	benchPath := filepath.Join(*outDir, "BENCH_"+spec.Name+".json")
	payload, err := json.MarshalIndent(report.Summarize(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchPath, append(payload, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "%s: %d jobs (%d failed) in %s across %d cells",
		spec.Name, len(report.Results), report.Failed,
		report.Elapsed.Round(1e6), len(report.Cells))
	if len(report.Skipped) > 0 {
		fmt.Fprintf(os.Stderr, "; %d matrix combinations skipped", len(report.Skipped))
	}
	fmt.Fprintf(os.Stderr, " -> %s\n", benchPath)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if errors.Is(runErr, context.Canceled) {
		return fmt.Errorf("interrupted after %d jobs (partial results flushed)", len(report.Results))
	}
	if *strict {
		unverified, degraded := 0, 0
		for _, r := range report.Results {
			if r.Error == "" && !r.Verified {
				unverified++
			}
			// A budget-tripped leader solve means the sweep's quality claim
			// (exact unless reported otherwise) silently degraded to the
			// 2-approximation — exactly what a smoke gate must catch.
			if r.LeaderPath == kernel.PathKernelFallback {
				degraded++
			}
		}
		if report.Failed > 0 || unverified > 0 || degraded > 0 {
			return fmt.Errorf("strict: %d jobs failed, %d solutions infeasible, %d leader solves fell back",
				report.Failed, unverified, degraded)
		}
	}
	return nil
}

// printRegistry writes the -list output: every registry key a spec can name,
// with enough context that spec authors stop guessing.
func printRegistry(w io.Writer) {
	fmt.Fprintln(w, "algorithms:")
	for _, a := range harness.AlgorithmInfos() {
		var tags []string
		if a.NeedsEps {
			tags = append(tags, "eps-grid")
		}
		tags = append(tags, "r="+a.Powers)
		if a.Exact {
			tags = append(tags, "exact")
		}
		fmt.Fprintf(w, "  %-17s %-12s %-4s [%s]\n", a.Name, a.Model, a.Problem, strings.Join(tags, ","))
		fmt.Fprintf(w, "  %-17s %s\n", "", a.Description)
		if a.Estimator != "" {
			fmt.Fprintf(w, "  %-17s estimator: %s\n", "", a.Estimator)
		}
		if len(a.Spans) > 0 {
			fmt.Fprintf(w, "  %-17s spans: %s\n", "", strings.Join(a.Spans, ", "))
		}
	}
	fmt.Fprintln(w, "\ngenerators:")
	for _, g := range harness.GeneratorNames() {
		fmt.Fprintf(w, "  %-21s %s\n", g, harness.GeneratorDescription(g))
	}
	fmt.Fprintln(w, "\nlocal solvers (Phase-II leader, spec localSolver / -local-solver):")
	for _, s := range harness.LocalSolverInfos() {
		fmt.Fprintf(w, "  %-13s %s\n", s.Name, s.Description)
	}
}

func buildSpec(specPath, name, generators, sizes, algorithms, epsilons, powers, localSolver string,
	trials int, rootSeed int64, oracleN int) (*harness.Spec, error) {
	if specPath != "" {
		return harness.LoadSpec(specPath)
	}
	gens, err := harness.ParseGenerators(generators)
	if err != nil {
		return nil, err
	}
	ns, err := parseInts(sizes)
	if err != nil {
		return nil, fmt.Errorf("-sizes: %w", err)
	}
	rs, err := parseInts(powers)
	if err != nil {
		return nil, fmt.Errorf("-powers: %w", err)
	}
	eps, err := parseFloats(epsilons)
	if err != nil {
		return nil, fmt.Errorf("-eps: %w", err)
	}
	spec := &harness.Spec{
		Name:        name,
		RootSeed:    rootSeed,
		Trials:      trials,
		Generators:  gens,
		Sizes:       ns,
		Powers:      rs,
		Algorithms:  splitCSV(algorithms),
		Epsilons:    eps,
		OracleN:     oracleN,
		LocalSolver: localSolver,
	}
	return spec, spec.Validate()
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitCSV(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
