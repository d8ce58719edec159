// Package harness is the experiment-orchestration subsystem: it expands a
// declarative scenario matrix (generator × n × algorithm × ε × power r ×
// shard count × trial) into concrete jobs with deterministic per-job seeds,
// shards them across a worker pool with cancellation and per-job panic
// isolation, and streams results into pluggable sinks (JSONL, CSV) before
// aggregating approximation-ratio and round/message/bit statistics per
// scenario cell.
//
// The subsystem exists so that every sweep in the repo — the cmd/experiments
// presets (whose tables print to stdout), cmd/powerbench, and future
// performance work — reports numbers through the same deterministic
// machinery instead of hand-rolled serial loops.
//
// Determinism contract: a fixed Spec (including RootSeed) produces
// byte-identical JSONL output regardless of worker count.  Per-job seeds are
// derived from the root seed by hashing the job's scenario coordinates, so
// adding or removing cells never perturbs the seeds of unrelated cells.
//
// Two coordinates are deliberately excluded from seed derivation:
//
//   - The shard count (Spec.ShardCounts): the same cell at one and at many
//     shards replays the identical run, so a multi-count sweep is a
//     built-in differential test of the simulator's shard barrier —
//     measurements must match, only wall clock may differ.
//   - The graph instance seed (Job.InstanceSeed) depends only on
//     (generator, n, power, trial), never on algorithm or ε, so every
//     algorithm in a scenario runs on the identical instance.
//
// Shared instances are what make the oracle cache work: when the exact
// oracle is enabled (Spec.OracleN), the runner memoizes optima per
// (generator, n, power, instance seed, problem) for the duration of one
// run, so a matrix with k algorithms pays for each exponential exact solve
// once instead of k times — roughly halving small-n sweep cost.
package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// Spec declares a scenario matrix.  Every combination of Generators × Sizes
// × Powers × Algorithms × Epsilons × Trials expands into one Job (epsilon is
// skipped for algorithms that do not take ε; combinations an algorithm
// cannot serve — e.g. a CONGEST G² algorithm asked for r = 3 — are dropped
// and reported in ExpandReport.Skipped).
type Spec struct {
	// Name labels output files (BENCH_<Name>.json) and summaries.
	Name string `json:"name"`
	// RootSeed derives every per-job seed; identical specs with identical
	// root seeds produce identical results.
	RootSeed int64 `json:"rootSeed"`
	// Trials is the number of independent seeded repetitions per scenario
	// cell (default 1).
	Trials int `json:"trials,omitempty"`
	// Generators lists the graph workloads to sweep.
	Generators []GeneratorSpec `json:"generators"`
	// Sizes lists the vertex counts n.
	Sizes []int `json:"sizes"`
	// Powers lists the graph powers r (default [2], the paper's G²).
	Powers []int `json:"powers,omitempty"`
	// Algorithms names entries of the algorithm registry (see Algorithms()).
	Algorithms []string `json:"algorithms"`
	// Epsilons is the ε grid for (1+ε)-approximation algorithms
	// (default [0.5]); ignored by algorithms without an ε knob.
	Epsilons []float64 `json:"epsilons,omitempty"`
	// EngineModes is accepted for spec files written when the simulator had
	// two engines: each entry must be "" or "batch" (see CheckEngine), and
	// the field changes nothing — it never multiplies jobs.
	EngineModes []string `json:"engineModes,omitempty"`
	// OracleN enables the exact oracle: cells with n ≤ OracleN also solve
	// the instance exactly and report the approximation ratio (default 0 =
	// never; the exact solvers are exponential in the worst case).
	OracleN int `json:"oracleN,omitempty"`
	// BandwidthFactor overrides the simulator's per-message budget
	// multiplier (0 = per-algorithm default).
	BandwidthFactor int `json:"bandwidthFactor,omitempty"`
	// MaxRounds aborts runaway distributed executions (0 = engine default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Shards splits the simulator's per-round node sweep across that many
	// workers inside each job (congest.Config.Shards; 0/1 = the sequential
	// sweep). It never enters seed derivation and must never change any
	// measurement — a multi-shard sweep is a live determinism test of the
	// shard barrier — so it only trades wall clock, which is what makes it
	// worthwhile for the single huge jobs of the mega sweeps where
	// job-level parallelism has nothing left to parallelize.
	Shards int `json:"shards,omitempty"`
	// ShardCounts sweeps the shard count as an axis (default [Shards]):
	// one job per count for distributed cells, aggregated into separate
	// BENCH cells so their wall clocks compare side by side — the mega
	// sweep's shard-scaling curve. Like Shards itself the axis never
	// enters seed derivation and must never change measurements, so a
	// multi-count sweep doubles as a live determinism test of the shard
	// barrier. Centralized baselines, which never run the simulator,
	// collapse the axis to its first entry.
	ShardCounts []int `json:"shardCounts,omitempty"`
	// LocalSolver picks the Phase-II leader solver of the MVC algorithms:
	// "" or "kernel-exact" (the default kernelize-then-solve ladder of
	// internal/kernel: reduction rules, bounded branch and bound, local-
	// ratio fallback) or "five-thirds" (Corollary 17's polynomial
	// 5/3-approximation). Sparse thousand-node sweeps that hand
	// the leader essentially all of Gʳ — the randomized variants' usual
	// fate — are exactly what "kernel-exact" exists for; MDS and the
	// centralized baselines ignore the knob.
	LocalSolver string `json:"localSolver,omitempty"`
	// TraceDir, when non-empty, streams one JSONL trace file per job into
	// the directory (see RunOptions.TraceDir; the powerbench -trace flag
	// overrides it).
	TraceDir string `json:"traceDir,omitempty"`
}

// Job is one concrete experiment: a fully bound scenario point with its
// derived seed.  Jobs are self-contained — two equal Jobs produce equal
// JobResults regardless of which worker runs them or when.
type Job struct {
	// Index is the job's position in spec-expansion order; sinks emit
	// results in Index order, which is what makes parallel runs
	// byte-identical to serial ones.
	Index     int           `json:"index"`
	Generator GeneratorSpec `json:"generator"`
	N         int           `json:"n"`
	Power     int           `json:"power"`
	Algorithm string        `json:"algorithm"`
	// Epsilon is 0 for algorithms without an ε parameter.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Engine is accepted for callers written when the simulator had two
	// engines: it must be "" or "batch" (see CheckEngine) and changes
	// nothing.
	Engine string `json:"engine,omitempty"`
	Trial  int    `json:"trial"`
	// Seed drives the algorithm's randomness.
	Seed int64 `json:"seed"`
	// InstanceSeed drives graph generation. Expand derives it from
	// (generator, n, power, trial) only, so every algorithm (and shard
	// count) in a scenario cell runs on the identical instance — the paired
	// design that makes cross-algorithm ratios meaningful and lets the
	// runner's oracle cache solve each instance exactly once. Zero means
	// "use Seed" (hand-built job lists keep their original behavior).
	InstanceSeed int64 `json:"instanceSeed,omitempty"`
	// OracleN, BandwidthFactor, MaxRounds, Shards, LocalSolver are copied
	// from the Spec.
	OracleN         int    `json:"oracleN,omitempty"`
	BandwidthFactor int    `json:"bandwidthFactor,omitempty"`
	MaxRounds       int    `json:"maxRounds,omitempty"`
	Shards          int    `json:"shards,omitempty"`
	LocalSolver     string `json:"localSolver,omitempty"`
	// Gather is accepted for callers written when Phase II had two gathers:
	// it must be "" or "sparsified" (see checkGather) and changes nothing.
	Gather string `json:"gather,omitempty"`
}

// ExpandReport describes what Expand produced.
type ExpandReport struct {
	// Skipped lists matrix combinations dropped because the algorithm
	// cannot serve them (wrong power), one human-readable line each.
	Skipped []string
}

// Validate checks the spec against the registries without expanding it.
func (s *Spec) Validate() error {
	if len(s.Generators) == 0 {
		return fmt.Errorf("harness: spec %q has no generators", s.Name)
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("harness: spec %q has no sizes", s.Name)
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("harness: spec %q has no algorithms", s.Name)
	}
	for _, g := range s.Generators {
		if err := g.validate(); err != nil {
			return err
		}
	}
	for _, a := range s.Algorithms {
		if _, ok := lookupAlgorithm(a); !ok {
			return fmt.Errorf("harness: unknown algorithm %q (known: %v)", a, AlgorithmNames())
		}
	}
	for _, n := range s.Sizes {
		if n <= 0 {
			return fmt.Errorf("harness: non-positive size %d", n)
		}
	}
	for _, r := range s.powers() {
		if r < 1 {
			return fmt.Errorf("harness: non-positive power %d", r)
		}
	}
	for _, e := range s.epsilons() {
		if e <= 0 {
			return fmt.Errorf("harness: non-positive epsilon %v", e)
		}
	}
	for _, m := range s.EngineModes {
		if err := CheckEngine(m); err != nil {
			return err
		}
	}
	if s.Trials < 0 {
		return fmt.Errorf("harness: negative trial count %d", s.Trials)
	}
	if s.Shards < 0 {
		return fmt.Errorf("harness: negative shard count %d", s.Shards)
	}
	for _, c := range s.shardCounts() {
		if c < 0 {
			return fmt.Errorf("harness: negative shard count %d in shardCounts", c)
		}
	}
	if _, err := parseLocalSolver(s.LocalSolver); err != nil {
		return err
	}
	return nil
}

func (s *Spec) trials() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

func (s *Spec) powers() []int {
	if len(s.Powers) == 0 {
		return []int{2}
	}
	return s.Powers
}

func (s *Spec) epsilons() []float64 {
	if len(s.Epsilons) == 0 {
		return []float64{0.5}
	}
	return s.Epsilons
}

func (s *Spec) shardCounts() []int {
	if len(s.ShardCounts) == 0 {
		return []int{s.Shards}
	}
	return s.ShardCounts
}

// Expand materializes the matrix into jobs in canonical order
// (generator, size, power, algorithm, ε, trial — innermost last).
func (s *Spec) Expand() ([]Job, ExpandReport, error) {
	if err := s.Validate(); err != nil {
		return nil, ExpandReport{}, err
	}
	var jobs []Job
	var rep ExpandReport
	for _, gen := range s.Generators {
		for _, n := range s.Sizes {
			for _, r := range s.powers() {
				for _, name := range s.Algorithms {
					alg, _ := lookupAlgorithm(name)
					if !alg.SupportsPower(r) {
						rep.Skipped = append(rep.Skipped, fmt.Sprintf(
							"%s × n=%d × r=%d: algorithm %s only supports r=%s",
							gen.Key(), n, r, name, alg.PowersLabel()))
						continue
					}
					epsGrid := []float64{0}
					if alg.NeedsEps {
						epsGrid = s.epsilons()
					}
					// The shard axis only moves wall clock inside the
					// simulator; centralized baselines collapse it to its
					// first entry.
					counts := s.shardCounts()
					if alg.Model == ModelCentralized {
						if len(counts) > 1 {
							rep.Skipped = append(rep.Skipped, fmt.Sprintf(
								"%s × n=%d × r=%d: algorithm %s ignores the shard axis (ran once)",
								gen.Key(), n, r, name))
						}
						counts = counts[:1]
					}
					for _, shards := range counts {
						for _, eps := range epsGrid {
							for t := 0; t < s.trials(); t++ {
								j := Job{
									Index:           len(jobs),
									Generator:       gen,
									N:               n,
									Power:           r,
									Algorithm:       name,
									Epsilon:         eps,
									Trial:           t,
									OracleN:         s.OracleN,
									BandwidthFactor: s.BandwidthFactor,
									MaxRounds:       s.MaxRounds,
									Shards:          shards,
									LocalSolver:     s.LocalSolver,
								}
								// The shard count is not part of the seed:
								// every count replays the same run.
								j.Seed = deriveSeed(s.RootSeed, j.cellKey(), t)
								j.InstanceSeed = deriveSeed(s.RootSeed, j.instanceKey(), t)
								jobs = append(jobs, j)
							}
						}
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, rep, fmt.Errorf("harness: spec %q expanded to zero jobs (all %d combinations skipped)",
			s.Name, len(rep.Skipped))
	}
	return jobs, rep, nil
}

// scenarioKey is the canonical scenario-cell coordinate string shared by
// seed derivation (Job) and aggregation grouping (JobResult).  It
// deliberately excludes the trial index and the seed itself.
func scenarioKey(gen GeneratorSpec, n, power int, algorithm string, eps float64) string {
	return fmt.Sprintf("%s|n=%d|r=%d|%s|eps=%g", gen.Key(), n, power, algorithm, eps)
}

func (j *Job) cellKey() string {
	return scenarioKey(j.Generator, j.N, j.Power, j.Algorithm, j.Epsilon)
}

// instanceKey is the coordinate of the graph instance alone — no
// algorithm, ε, or shard count — so all algorithms of a scenario share it.
func (j *Job) instanceKey() string {
	return fmt.Sprintf("%s|n=%d|r=%d|instance", j.Generator.Key(), j.N, j.Power)
}

// instanceSeed returns the seed that generates the job's graph.
func (j *Job) instanceSeed() int64 {
	if j.InstanceSeed != 0 {
		return j.InstanceSeed
	}
	return j.Seed
}

// deriveSeed maps (root, cell, trial) to a seed via FNV-1a followed by a
// splitmix64 finalizer.  The mapping depends only on the job's coordinates,
// never on expansion order, so editing one axis of a spec leaves the seeds
// of untouched cells intact.
func deriveSeed(root int64, cellKey string, trial int) int64 {
	h := fnv.New64a()
	io.WriteString(h, cellKey)
	fmt.Fprintf(h, "|t=%d", trial)
	z := h.Sum64() ^ uint64(root)*0x9e3779b97f4a7c15
	// splitmix64 finalizer — full-avalanche so nearby cells get unrelated
	// streams even under the weak FNV mix.
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// LoadSpec reads a Spec from a JSON file, rejecting unknown fields so typos
// in a scenario matrix fail loudly instead of silently shrinking the sweep.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("harness: parsing spec %s: %w", path, err)
	}
	// Decode parses exactly one JSON value; anything after it (a concatenated
	// second spec, shell garbage from a bad redirect, a truncated merge) must
	// fail loudly instead of silently loading the first value as valid.
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("harness: parsing spec %s: trailing content after spec object (next token %v)", path, tok)
	}
	if s.Name == "" {
		s.Name = "sweep"
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
