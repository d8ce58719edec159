// Package powergraph is a Go implementation of "Distributed Approximation
// on Power Graphs" (Bar-Yehuda, Censor-Hillel, Maus, Pai, Pemmaraju,
// PODC 2020): algorithms and lower-bound constructions for minimum vertex
// cover and minimum dominating set on the square G² of a communication
// network G, in the CONGEST and CONGESTED CLIQUE models.
//
// The package is a facade over the implementation packages:
//
//   - graph substrate with G²/Gʳ computation and generators;
//   - a bit-accounting CONGEST / CONGESTED CLIQUE round simulator that
//     steps every node's program once per round over flat message buffers
//     (optionally sharded across workers with identical results) and
//     enforces O(log n)-bit messages;
//   - the paper's distributed algorithms (Theorems 1, 7, 11, 28,
//     Corollaries 10, 17) and centralized algorithms (Theorem 12,
//     Lemma 6);
//   - exact branch-and-bound solvers used as the leader-side oracle and
//     for verification;
//   - every lower-bound family of Sections 5, 7 and 8 (Figures 1–7) with
//     machine-checkable predicates;
//   - the Alice–Bob communication framework of Section 5.1.
//
// Quick start:
//
//	g := powergraph.ConnectedGNP(64, 0.1, rand.New(rand.NewSource(1)))
//	res, err := powergraph.MVCCongest(g, 0.5, nil)  // (1+ε)-approx of MVC(G²)
//	ok, _ := powergraph.IsSquareVertexCover(g, res.Solution)
//
// # Experiment harness
//
// The harness turns a declarative scenario matrix into a sharded parallel
// sweep with deterministic per-job seeds: identical specs (including the
// root seed) produce byte-identical JSONL results regardless of worker
// count, and cancelling a run flushes the completed prefix.  Declare a
// Spec, pick sinks, and Run:
//
//	spec := &powergraph.Spec{
//		Name:       "demo",
//		RootSeed:   1,
//		Trials:     3,
//		Generators: []powergraph.GeneratorSpec{{Name: "connected-gnp"}, {Name: "random-tree"}},
//		Sizes:      []int{32, 64},
//		Algorithms: []string{"mvc-congest", "mvc-clique-rand"},
//		Epsilons:   []float64{0.5},
//		OracleN:    48, // solve exactly and report ratios up to n=48
//	}
//	report, err := powergraph.Run(ctx, spec, powergraph.RunOptions{
//		Sinks: []powergraph.Sink{powergraph.NewJSONLSink(os.Stdout)},
//	})
//	// report.Cells holds per-scenario mean/p50/p95 ratio, round, message
//	// and bit statistics.
//
// The same machinery backs the command-line sweeper:
//
//	go run ./cmd/powerbench -spec specs/podc20-sweep.json
//	go run ./cmd/powerbench -generators connected-gnp,random-tree,caterpillar \
//	    -sizes 32,64 -algorithms mvc-congest,mvc-clique-rand -trials 3
//
// which writes <name>.jsonl, <name>.csv and an aggregated
// BENCH_<name>.json summary, and the experiment presets in
// ./cmd/experiments, which pin explicit per-job seeds through RunJobs and
// print their tables to stdout.
package powergraph

import (
	"context"
	"io"
	"math/rand"

	"powergraph/internal/bitset"
	"powergraph/internal/centralized"
	"powergraph/internal/congest"
	"powergraph/internal/core"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/kernel"
	"powergraph/internal/lowerbound"
	"powergraph/internal/twoparty"
	"powergraph/internal/verify"
)

// Core types, re-exported.
type (
	// Graph is an immutable simple undirected graph with optional vertex
	// weights; see Builder for construction and the methods on Graph for
	// Square/Power computation and traversal.
	Graph = graph.Graph
	// Builder accumulates edges and produces an immutable Graph.
	Builder = graph.Builder
	// VertexSet is a bitset over vertex ids; all solutions are VertexSets.
	VertexSet = bitset.Set
	// Result is the outcome of a distributed computation: the solution
	// set, Phase-I accounting, and simulator statistics.
	Result = core.Result
	// Options tunes distributed runs (seed, bandwidth, local solver, cut).
	Options = core.Options
	// MDSOptions additionally tunes the Theorem 28 estimator and phase
	// budget.
	MDSOptions = core.MDSOptions
	// Stats is the simulator's cost accounting (rounds, messages, bits,
	// cut traffic).
	Stats = congest.Stats
	// FiveThirdsResult carries Algorithm 2's cover and per-part sets.
	FiveThirdsResult = centralized.FiveThirdsResult
	// Ratio reports solution cost against a reference optimum.
	Ratio = verify.Ratio
	// KernelConfig tunes the kernelize-then-solve ladder (its
	// branch-and-bound budget).
	KernelConfig = kernel.Config
	// KernelReport describes one kernelize-then-solve run: path taken,
	// kernel size, committed cost, lower bound, rule tallies. Distributed
	// Results carry one as LeaderSolve when the default solver ran.
	KernelReport = kernel.Report
	// KernelSolver is the configured kernelize-then-solve solver.
	KernelSolver = kernel.Solver
)

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewVertexSet returns an empty vertex set over n vertices.
func NewVertexSet(n int) *VertexSet { return bitset.New(n) }

// ReadGraph decodes a graph from the line-oriented edge-list format
// ("n <count>", "e <u> <v>", optional "w <v> <weight>").
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph encodes a graph in the edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Generators (deterministic and seeded-random workloads).

// Path returns the path graph P_n.
func Path(n int) *Graph { return graph.Path(n) }

// Cycle returns the cycle graph C_n.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Star returns the star on n vertices centered at vertex 0.
func Star(n int) *Graph { return graph.Star(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Caterpillar returns a spine path with pendant legs — the structure on
// which G² is dramatically denser than G.
func Caterpillar(spine, legs int) *Graph { return graph.Caterpillar(spine, legs) }

// RandomTree returns a random labelled tree.
func RandomTree(n int, rng *rand.Rand) *Graph { return graph.RandomTree(n, rng) }

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, rng *rand.Rand) *Graph { return graph.GNP(n, p, rng) }

// ConnectedGNP returns G(n, p) conditioned on connectivity.
func ConnectedGNP(n int, p float64, rng *rand.Rand) *Graph {
	return graph.ConnectedGNP(n, p, rng)
}

// UnitDisk returns a random unit-disk (radio-network) graph.
func UnitDisk(n int, radius float64, rng *rand.Rand) *Graph {
	return graph.UnitDisk(n, radius, rng)
}

// ConnectedUnitDisk retries UnitDisk until connected.
func ConnectedUnitDisk(n int, radius float64, rng *rand.Rand) *Graph {
	return graph.ConnectedUnitDisk(n, radius, rng)
}

// WithRandomWeights copies g with uniform random vertex weights in
// [1, maxW].
func WithRandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	return graph.WithRandomWeights(g, maxW, rng)
}

// Distributed algorithms (the paper's contributions).

// MVCCongest runs Algorithm 1 (Theorem 1): deterministic
// (1+ε)-approximate MVC on G² in O(n/ε) CONGEST rounds over G.
func MVCCongest(g *Graph, eps float64, opts *Options) (*Result, error) {
	return core.ApproxMVCCongest(g, eps, opts)
}

// MWVCCongest runs the weighted variant (Theorem 7): deterministic
// (1+ε)-approximate weighted MVC on G² in O(n·log n/ε) CONGEST rounds.
func MWVCCongest(g *Graph, eps float64, opts *Options) (*Result, error) {
	return core.ApproxMWVCCongest(g, eps, opts)
}

// MVCCliqueDeterministic runs Corollary 10: deterministic (1+ε)-approximate
// MVC on G² in O(εn + 1/ε) CONGESTED CLIQUE rounds.
func MVCCliqueDeterministic(g *Graph, eps float64, opts *Options) (*Result, error) {
	return core.ApproxMVCCliqueDeterministic(g, eps, opts)
}

// MVCCliqueRandomized runs Theorem 11: randomized (1+ε)-approximate MVC on
// G² in O(log n + 1/ε) CONGESTED CLIQUE rounds w.h.p.
func MVCCliqueRandomized(g *Graph, eps float64, opts *Options) (*Result, error) {
	return core.ApproxMVCCliqueRandomized(g, eps, opts)
}

// MVCCongestRandomized runs Algorithm 1 with the Section 3.3 randomized
// voting Phase I in plain CONGEST: Phase I drains heavy neighborhoods in
// O(log n) iterations w.h.p. (the overall bound stays O(n/ε) — Phase II's
// leader gather dominates, as the paper notes).
func MVCCongestRandomized(g *Graph, eps float64, opts *Options) (*Result, error) {
	return core.ApproxMVCCongestRandomized(g, eps, opts)
}

// MVCCongest53 runs Corollary 17: a 5/3-approximation for MVC on G² in
// O(n) CONGEST rounds using only polynomial local computation (Phase I
// with ε = 1/2, the centralized 5/3-approximation at the leader).
func MVCCongest53(g *Graph, opts *Options) (*Result, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	o.LocalSolver = func(h *Graph) *VertexSet {
		return centralized.FiveThirdsOnGraph(h).Cover
	}
	return core.ApproxMVCCongest(g, 0.5, &o)
}

// MDSCongest runs Theorem 28: randomized O(log Δ)-approximate MDS on G²
// in polylog(n) CONGEST rounds.
func MDSCongest(g *Graph, opts *MDSOptions) (*Result, error) {
	return core.ApproxMDSCongest(g, opts)
}

// Centralized algorithms.

// FiveThirdsSquareMVC runs Algorithm 2 (Theorem 12): a centralized
// polynomial-time 5/3-approximation for MVC on G².
func FiveThirdsSquareMVC(g *Graph) FiveThirdsResult {
	return centralized.FiveThirdsSquareMVC(g)
}

// Gavril2Approx returns the classical maximal-matching 2-approximation for
// MVC of the given (explicit) graph.
func Gavril2Approx(g *Graph) *VertexSet { return centralized.Gavril2Approx(g) }

// AllVerticesPowerMVC returns all vertices — by Lemma 6 a
// (1 + 1/⌊r/2⌋)-approximation for MVC on Gʳ with zero communication.
func AllVerticesPowerMVC(g *Graph) *VertexSet {
	return centralized.AllVerticesPowerMVC(g)
}

// Lemma6Bound returns Lemma 6's all-vertices approximation factor for Gʳ.
func Lemma6Bound(r int) float64 { return centralized.Lemma6Bound(r) }

// GreedyMDS returns the classical greedy ln(Δ+1)-approximate dominating
// set of the given (explicit) graph — the baseline for Theorem 28.
func GreedyMDS(g *Graph) *VertexSet { return exact.GreedyDominatingSet(g) }

// Exact solvers (the leader-side oracle; exponential worst case).

// ExactVC returns a minimum-weight vertex cover of g.
func ExactVC(g *Graph) *VertexSet { return exact.VertexCover(g) }

// ExactVCBounded is ExactVC with a search-node budget (0 = unlimited). On
// budget exhaustion it returns the best cover found so far alongside the
// error: feasible, but not necessarily minimum.
func ExactVCBounded(g *Graph, maxNodes int64) (*VertexSet, error) {
	s, _, err := exact.VertexCoverBounded(g, maxNodes, nil)
	return s, err
}

// ExactDS returns a minimum-weight dominating set of g.
func ExactDS(g *Graph) *VertexSet { return exact.DominatingSet(g) }

// ExactDSBounded is ExactDS with a search-node budget (0 = unlimited). On
// budget exhaustion it returns the error and no set.
func ExactDSBounded(g *Graph, maxNodes int64) (*VertexSet, error) {
	return exact.DominatingSetBounded(g, maxNodes)
}

// Kernelize-then-solve (the default Phase-II leader solver; see
// ARCHITECTURE.md, "Leader-solve pipeline").

// KernelVC solves minimum (weighted) vertex cover through the
// kernelize-then-solve ladder with an unlimited search budget: above 64
// vertices, reduction rules shrink the instance to its hard core before
// the exact search runs on it, so sparse power graphs with thousands of
// vertices need only a handful of search nodes.
func KernelVC(g *Graph) *VertexSet { return kernel.VertexCover(g) }

// KernelMDS is KernelVC for minimum (weighted) dominating set.
func KernelMDS(g *Graph) *VertexSet { return kernel.DominatingSet(g) }

// NewKernelSolver returns a configured kernelize-then-solve solver; its
// VertexCover/DominatingSet methods also return the KernelReport describing
// which ladder rung ran (direct, kernel-exact, kernel-fallback), the kernel
// size, and the proven lower bound.
func NewKernelSolver(cfg KernelConfig) *KernelSolver { return kernel.NewSolver(cfg) }

// Verification.

// IsSquareVertexCover reports whether s covers every edge of g².
func IsSquareVertexCover(g *Graph, s *VertexSet) (bool, [2]int) {
	return verify.IsSquareVertexCover(g, s)
}

// IsSquareDominatingSet reports whether s dominates g².
func IsSquareDominatingSet(g *Graph, s *VertexSet) (bool, int) {
	return verify.IsSquareDominatingSet(g, s)
}

// IsPowerVertexCover reports whether s covers every edge of gʳ — the MVC
// checker for runs with Options.Power ≠ 2.
func IsPowerVertexCover(g *Graph, r int, s *VertexSet) (bool, [2]int) {
	return verify.IsPowerVertexCover(g, r, s)
}

// IsPowerDominatingSet reports whether s dominates gʳ — the MDS checker
// for runs with Options.Power ≠ 2.
func IsPowerDominatingSet(g *Graph, r int, s *VertexSet) (bool, int) {
	return verify.IsPowerDominatingSet(g, r, s)
}

// IsVertexCover reports whether s covers every edge of g itself.
func IsVertexCover(g *Graph, s *VertexSet) (bool, [2]int) {
	return verify.IsVertexCover(g, s)
}

// IsDominatingSet reports whether s dominates g itself.
func IsDominatingSet(g *Graph, s *VertexSet) (bool, int) {
	return verify.IsDominatingSet(g, s)
}

// Cost returns the weight of a solution under g's vertex weights.
func Cost(g *Graph, s *VertexSet) int64 { return verify.Cost(g, s) }

// RatioOf forms an approximation ratio from a cost and a reference.
func RatioOf(cost, reference int64) Ratio { return verify.RatioOf(cost, reference) }

// Lower-bound families (Sections 5, 7, 8; Figures 1–7).
type (
	// DisjMatrix is a k×k set-disjointness input.
	DisjMatrix = lowerbound.Matrix
	// CKP17MVC is the Figure 1 MVC family.
	CKP17MVC = lowerbound.CKP17MVC
	// WeightedMVCGadget is the Figure 2 / Theorem 20 family.
	WeightedMVCGadget = lowerbound.WeightedMVCGadget
	// UnweightedMVCGadget is the Figure 3 / Theorem 22 family.
	UnweightedMVCGadget = lowerbound.UnweightedMVCGadget
	// BCD19MDS is the Figure 4 MDS family.
	BCD19MDS = lowerbound.BCD19MDS
	// MDSGadget is the Figure 5 / Theorem 31 family.
	MDSGadget = lowerbound.MDSGadget
	// SetGadgetMDS is the Figure 6–7 / Theorems 35, 41 family.
	SetGadgetMDS = lowerbound.SetGadgetMDS
	// CoveringFamily is an r-covering set system (Definition 37).
	CoveringFamily = lowerbound.CoveringFamily
	// DanglingPathReduction is the Theorem 26/44 edge-gadget reduction.
	DanglingPathReduction = lowerbound.DanglingPathReduction
	// MergedPathReduction is the Theorem 45 merged-gadget reduction.
	MergedPathReduction = lowerbound.MergedPathReduction
)

// NewDisjMatrix returns an all-zeros k×k disjointness input.
func NewDisjMatrix(k int) DisjMatrix { return lowerbound.NewMatrix(k) }

// Disj evaluates set disjointness (false iff some common 1-bit exists).
func Disj(x, y []bool) bool { return lowerbound.Disj(x, y) }

// BuildCKP17MVC constructs the Figure 1 family for inputs x, y.
func BuildCKP17MVC(x, y DisjMatrix) (*CKP17MVC, error) {
	return lowerbound.BuildCKP17MVC(x, y)
}

// BuildWeightedMVCGadget constructs the Figure 2 family.
func BuildWeightedMVCGadget(x, y DisjMatrix) (*WeightedMVCGadget, error) {
	return lowerbound.BuildWeightedMVCGadget(x, y)
}

// BuildUnweightedMVCGadget constructs the Figure 3 family.
func BuildUnweightedMVCGadget(x, y DisjMatrix) (*UnweightedMVCGadget, error) {
	return lowerbound.BuildUnweightedMVCGadget(x, y)
}

// BuildBCD19MDS constructs the Figure 4 family.
func BuildBCD19MDS(x, y DisjMatrix) (*BCD19MDS, error) {
	return lowerbound.BuildBCD19MDS(x, y)
}

// BuildMDSGadget constructs the Figure 5 family.
func BuildMDSGadget(x, y DisjMatrix) (*MDSGadget, error) {
	return lowerbound.BuildMDSGadget(x, y)
}

// CubeFamily returns the perfect covering family over {0,1}^T.
func CubeFamily(T int) *CoveringFamily { return lowerbound.CubeFamily(T) }

// BuildSetGadgetMDS constructs the Figure 6–7 family.
func BuildSetGadgetMDS(x, y DisjMatrix, f *CoveringFamily, weighted bool, heavyWeight int64) (*SetGadgetMDS, error) {
	return lowerbound.BuildSetGadgetMDS(x, y, f, weighted, heavyWeight)
}

// BuildDanglingPathReduction constructs the Theorem 26/44 reduction.
func BuildDanglingPathReduction(g *Graph) *DanglingPathReduction {
	return lowerbound.BuildDanglingPathReduction(g)
}

// BuildMergedPathReduction constructs the Theorem 45 reduction.
func BuildMergedPathReduction(g *Graph) (*MergedPathReduction, error) {
	return lowerbound.BuildMergedPathReduction(g)
}

// RandomIntersectingPair draws disjointness inputs with DISJ = false.
func RandomIntersectingPair(k int, rng *rand.Rand) (DisjMatrix, DisjMatrix) {
	return lowerbound.RandomIntersectingPair(k, rng)
}

// RandomDisjointPair draws disjointness inputs with DISJ = true.
func RandomDisjointPair(k int, rng *rand.Rand) (DisjMatrix, DisjMatrix) {
	return lowerbound.RandomDisjointPair(k, rng)
}

// Experiment harness (internal/harness), re-exported.
type (
	// Spec declares a scenario matrix (generators × sizes × powers ×
	// algorithms × ε grid × trials) that expands into seeded Jobs.
	Spec = harness.Spec
	// GeneratorSpec names a graph workload plus its parameters.
	GeneratorSpec = harness.GeneratorSpec
	// Job is one fully bound scenario point with its derived seed.
	Job = harness.Job
	// JobResult is one executed job's measurements.
	JobResult = harness.JobResult
	// CellSummary aggregates every trial of one scenario cell.
	CellSummary = harness.CellSummary
	// BenchSummary is the BENCH_*.json payload written by cmd/powerbench.
	BenchSummary = harness.Summary
	// Report is a run's results, per-cell aggregates, and diagnostics.
	Report = harness.Report
	// RunOptions tunes a harness run (worker count, sinks, progress).
	RunOptions = harness.RunOptions
	// Sink receives results in job-index order.
	Sink = harness.Sink
	// SweepProgress is delivered once per completed job.
	SweepProgress = harness.Progress
)

// Run expands spec and executes every job across a worker pool; see
// harness.Run.  Identical specs yield byte-identical sink output for any
// worker count.
func Run(ctx context.Context, spec *Spec, opts RunOptions) (*Report, error) {
	return harness.Run(ctx, spec, opts)
}

// RunJobs executes an explicit job list with pinned seeds; see
// harness.RunJobs.
func RunJobs(ctx context.Context, jobs []Job, opts RunOptions) (*Report, error) {
	return harness.RunJobs(ctx, jobs, opts)
}

// NewJSONLSink streams results as JSON Lines to w.
func NewJSONLSink(w io.Writer) Sink { return harness.NewJSONLSink(w) }

// NewCSVSink streams results as CSV with a fixed header to w.
func NewCSVSink(w io.Writer) Sink { return harness.NewCSVSink(w) }

// SweepAlgorithms lists the algorithm registry available to Specs.
func SweepAlgorithms() []string { return harness.AlgorithmNames() }

// SweepGenerators lists the generator registry available to Specs.
func SweepGenerators() []string { return harness.GeneratorNames() }

// Two-party framework (Section 5.1).

// Lemma25Cover runs the O(log n)-bit two-party protocol of Lemma 25 on a
// vertex-partitioned graph, returning a cover of G² within cut-size of
// optimal plus the transcript.
func Lemma25Cover(g *Graph, alice *VertexSet) (*VertexSet, twoparty.Transcript) {
	return twoparty.Lemma25Cover(g, alice)
}

// Theorem19RoundLB evaluates the framework's Ω(CC/(|C|·log n)) round bound.
func Theorem19RoundLB(ccBits int64, cutEdges, n int) int64 {
	return twoparty.Theorem19RoundLB(ccBits, cutEdges, n)
}
