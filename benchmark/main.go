// Command benchmark is the repository's end-to-end benchmark: four workloads
// that load different layers of the system (the CONGEST engine, the kernel
// solver, the serving read path, and serving under edge churn), each run in
// its own child process so that peak memory and garbage-collector state
// belong to one workload alone.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload name[,name]] [-seed n] [-seconds s] [-trace 0|1] [-rate-scale x]
//
// Without -workload every workload runs. The command prints one line per
// metric, "<workload> <metric> <value> <unit>", writes
// bench-out/<workload>.json (with a provenance header), and ends with one
// JSON summary line. With -trace 1 it runs the traced variant instead: the
// per-layer metrics, with the spans written to bench-out/<workload>.spans.jsonl.
// It exits non-zero when a correctness check fails. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload's child process. A run measures for
// -seconds, plus its set-ups and, traced, its replays; the largest takes
// about 1.5 times the run length at the default of 25 s.
func childTimeout(seconds int) time.Duration {
	return time.Duration(3*seconds)*time.Second + 90*time.Second
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command-line settings shared by the parent and its
// children.
type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
	rateScale float64
	out       string
	child     bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	list := fs.String("workload", strings.Join(workloadNames(), ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of one run's measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant (per-layer metrics), 0 the untraced one")
	rateScale := fs.Float64("rate-scale", 1, "multiplies the serving workloads' arrival rates (the calibration ladder runs 1, 1.5 and 2)")
	out := fs.String("out", "bench-out", "directory for the per-workload JSON results and span files")
	child := fs.Bool("child", false, "run one workload in this process and print its raw result (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*rateScale > 0) {
		return nil, fmt.Errorf("-rate-scale must be positive, got %g", *rateScale)
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, rateScale: *rateScale, out: *out, child: *child}
	for _, name := range strings.Split(*list, ",") {
		if _, ok := lookupWorkload(name); !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
		}
		o.workloads = append(o.workloads, name)
	}
	if o.child && len(o.workloads) != 1 {
		return nil, fmt.Errorf("-child runs exactly one workload")
	}
	return o, nil
}

func (o *options) config() runConfig {
	return runConfig{
		seed:      o.seed,
		seconds:   time.Duration(o.seconds) * time.Second,
		trace:     o.trace,
		outDir:    o.out,
		rateScale: o.rateScale,
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.child {
		w, _ := lookupWorkload(o.workloads[0])
		res, err := w.run(ctx, o.config())
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}

	// The summary line: with one workload its metrics go in under their own
	// names, with several under "<workload>/<metric>".
	correct, attempted, failed := true, 0, 0
	metrics := map[string]any{}
	prov := readProvenance(o)
	for _, name := range o.workloads {
		res, err := runChild(ctx, o, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(stdout, res)
		if err := writeResult(o.out, prov, res); err != nil {
			return err
		}
		correct = correct && res.correct()
		attempted += res.Attempted
		failed += res.Failed
		for m, v := range metricValues(res) {
			if len(o.workloads) > 1 {
				m = name + "/" + m
			}
			metrics[m] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return errors.New("correctness check failed (see the problems printed above)")
	}
	return nil
}

// runChild runs one workload in a child process of this binary and returns
// its result, with the child's peak resident set size filled in from the
// kernel's accounting of the finished process.
func runChild(ctx context.Context, o *options, name string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout(o.seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-rate-scale", strconv.FormatFloat(o.rateScale, 'g', -1, 64), "-out", o.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !o.trace {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &res, nil
}

// printResult prints one "<workload> <metric> <value> <unit>" line per
// reported metric.
func printResult(w io.Writer, res *result) {
	for _, m := range reportedMetrics(res.Trace) {
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.name,
			strconv.FormatFloat(res.Metrics[m.name], 'g', -1, 64), m.unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "%s problem: %s\n", res.Workload, p)
	}
}

// provenance identifies the build and the machine a result came from.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// RatesRPS is the open-loop arrival rate of each serving workload.
	RatesRPS map[string]float64 `json:"ratesRps"`
}

func readProvenance(o *options) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		RatesRPS: map[string]float64{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	for _, w := range workloads {
		if w.rate > 0 {
			p.RatesRPS[w.name] = w.rate * o.rateScale
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValues maps each reported metric to its value and unit.
func metricValues(res *result) map[string]any {
	out := map[string]any{}
	for _, m := range reportedMetrics(res.Trace) {
		out[m.name] = map[string]any{"value": res.Metrics[m.name], "unit": m.unit}
	}
	return out
}

// writeResult stores one workload's result, with the provenance header and
// every metric's unit, as <dir>/<workload>.json.
func writeResult(dir string, prov provenance, res *result) error {
	b, err := json.MarshalIndent(map[string]any{
		"provenance": prov,
		"workload":   res.Workload,
		"correct":    res.correct(),
		"attempted":  res.Attempted,
		"failed":     res.Failed,
		"problems":   res.Problems,
		"metrics":    metricValues(res),
		"detail":     res.Detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.Workload+".json"), append(b, '\n'), 0o644)
}
