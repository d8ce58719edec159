package harness

import (
	"math"
	"sort"
	"time"
)

// Dist summarizes one metric's distribution over a scenario cell's trials.
type Dist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// CellSummary aggregates every trial of one scenario cell
// (generator × n × r × algorithm × ε).
type CellSummary struct {
	Generator GeneratorSpec `json:"generator"`
	N         int           `json:"n"`
	Power     int           `json:"power"`
	Algorithm string        `json:"algorithm"`
	Model     string        `json:"model"`
	Problem   string        `json:"problem"`
	Epsilon   float64       `json:"epsilon,omitempty"`
	// Gather is the generalized Phase-II gather mode the cell ran under
	// (empty = the sparsified default). A two-mode sweep produces one cell
	// per mode with identical solutions but different rounds/messages/bits —
	// the sparsifier's measured win.
	Gather string `json:"gather,omitempty"`
	// Shards is the simulator's shard count for this cell (0 = the
	// sequential sweep). It splits cells without touching measurements; a
	// ShardCounts sweep compares the cells' WallMS.
	Shards int `json:"shards,omitempty"`

	// Trials counts results in the cell; Errors the failed subset.
	Trials int `json:"trials"`
	Errors int `json:"errors"`
	// Verified counts successful trials whose solution passed the
	// feasibility check (should equal Trials − Errors).
	Verified int `json:"verified"`
	// OracleTrials counts trials with an exact optimum available; Ratio is
	// aggregated over exactly those.
	OracleTrials int `json:"oracleTrials"`
	// LeaderPaths counts trials per Phase-II leader-solve path ("direct",
	// "kernel-exact", "kernel-fallback"); empty for cells whose algorithm
	// has no leader solve or runs a custom solver. A "kernel-fallback"
	// entry flags cells whose reported quality is no longer exact.
	LeaderPaths map[string]int `json:"leaderPaths,omitempty"`

	Cost     Dist `json:"cost"`
	Ratio    Dist `json:"ratio"`
	Rounds   Dist `json:"rounds"`
	Messages Dist `json:"messages"`
	Bits     Dist `json:"bits"`
	// MaxRoundMessages is the per-trial peak single-round message count —
	// the congestion spike a sweep like specs/sparsify-sweep.json compares
	// across gather modes (the legacy near flood's burst vs the certificate
	// gather's bounded relays).
	MaxRoundMessages Dist `json:"maxRoundMessages"`
	// GatherMessages is the Phase-II gather's own message count
	// (JobResult.GatherMsgs): the metric the gather axis varies, which
	// Messages — dominated by Phase I — hides. Zero-valued for cells with
	// no gather stage.
	GatherMessages Dist `json:"gatherMessages"`
	// WallMS is the per-job wall-clock distribution in milliseconds. Like
	// the summary's ElapsedMS it is machine-dependent, which is why it
	// appears only in BENCH summaries and never in the deterministic
	// JSONL/CSV streams; it is what the shard-count cells of a scale sweep
	// are compared on.
	WallMS Dist `json:"wallMS"`
}

// Aggregate groups results by scenario cell and computes per-cell
// distributions.  Failed trials contribute to Errors only.  Cells come back
// in first-appearance (job-index) order, so aggregation is as deterministic
// as the result stream.
func Aggregate(results []JobResult) []CellSummary {
	type acc struct {
		summary                                                        CellSummary
		cost, ratio, rounds, messages, bits, maxMsgs, gatherMsgs, wall []float64
	}
	var order []string
	cells := map[string]*acc{}
	for i := range results {
		r := &results[i]
		key := r.cellKey()
		a, ok := cells[key]
		if !ok {
			a = &acc{summary: CellSummary{
				Generator: r.Generator, N: r.N, Power: r.Power,
				Algorithm: r.Algorithm, Model: r.Model, Problem: r.Problem,
				Epsilon: r.Epsilon, Gather: r.Gather, Shards: r.Shards,
			}}
			cells[key] = a
			order = append(order, key)
		}
		a.summary.Trials++
		if r.Error != "" {
			a.summary.Errors++
			continue
		}
		if a.summary.Model == "" {
			a.summary.Model, a.summary.Problem = r.Model, r.Problem
		}
		if r.Verified {
			a.summary.Verified++
		}
		if r.LeaderPath != "" {
			if a.summary.LeaderPaths == nil {
				a.summary.LeaderPaths = make(map[string]int)
			}
			a.summary.LeaderPaths[r.LeaderPath]++
		}
		a.cost = append(a.cost, float64(r.Cost))
		a.rounds = append(a.rounds, float64(r.Rounds))
		a.messages = append(a.messages, float64(r.Messages))
		a.bits = append(a.bits, float64(r.TotalBits))
		a.maxMsgs = append(a.maxMsgs, float64(r.MaxRoundMessages))
		a.gatherMsgs = append(a.gatherMsgs, float64(r.GatherMsgs))
		a.wall = append(a.wall, float64(r.Elapsed)/float64(time.Millisecond))
		if r.Optimum >= 0 {
			a.summary.OracleTrials++
			a.ratio = append(a.ratio, r.Ratio)
		}
	}
	out := make([]CellSummary, 0, len(order))
	for _, key := range order {
		a := cells[key]
		a.summary.Cost = distOf(a.cost)
		a.summary.Ratio = distOf(a.ratio)
		a.summary.Rounds = distOf(a.rounds)
		a.summary.Messages = distOf(a.messages)
		a.summary.Bits = distOf(a.bits)
		a.summary.MaxRoundMessages = distOf(a.maxMsgs)
		a.summary.GatherMessages = distOf(a.gatherMsgs)
		a.summary.WallMS = distOf(a.wall)
		out = append(out, a.summary)
	}
	return out
}

// distOf computes mean/p50/p95/max; an empty sample yields the zero Dist.
func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Dist{
		Mean: sum / float64(len(sorted)),
		P50:  percentile(sorted, 0.50),
		P95:  percentile(sorted, 0.95),
		Max:  sorted[len(sorted)-1],
	}
}

// percentile uses the nearest-rank definition on a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summary is the BENCH_*.json payload: the run's identity plus per-cell
// aggregates, small enough to diff across PRs as a perf trajectory.
type Summary struct {
	Name      string `json:"name"`
	RootSeed  int64  `json:"rootSeed"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// ElapsedMS is wall-clock and machine-dependent; it lives only in the
	// summary file, never in the deterministic JSONL stream.
	ElapsedMS int64         `json:"elapsedMS"`
	Skipped   []string      `json:"skipped,omitempty"`
	Cells     []CellSummary `json:"cells"`
}

// Summarize builds the BENCH summary from a finished report.
func (rep *Report) Summarize() *Summary {
	s := &Summary{
		Jobs:      len(rep.Results),
		Completed: rep.Completed,
		Failed:    rep.Failed,
		ElapsedMS: rep.Elapsed.Milliseconds(),
		Skipped:   rep.Skipped,
		Cells:     rep.Cells,
	}
	if rep.Spec != nil {
		s.Name = rep.Spec.Name
		s.RootSeed = rep.Spec.RootSeed
	}
	return s
}
