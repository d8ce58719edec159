// Package serve is the always-on serving layer: it holds graphs resident in
// memory and answers MVC / MWVC / MDS queries for concurrent clients over
// HTTP/JSON, accepting streaming edge insertions and deletions between
// queries.
//
// The layer's central object is the Instance — a resident graph made of the
// delta-overlay of internal/graph plus the power graphs Gʳ the queries have
// touched. Edge churn goes through graph.Overlay.Materialize, which rebuilds
// only the churned endpoints' rows of the view, and graph.IncrementalPower,
// which recomputes only the Gʳ rows within distance r-1 of the churned
// endpoints; both share every other row with the previous version. The
// result's canonical CSR is identical to a full Power(r) recompute (the
// churn property tests assert this at every step), and a batch costs
// O(n + dirty work) plus amortized slab compaction instead of O(n·m). Exact
// oracle queries ride the component-level cache of kernel.Incremental, which
// keys solves by component content and therefore survives churn: only
// components that actually changed pay the exponential solver again.
//
// Queries execute through harness.SolveInstance — the same code path the
// sweep harness runs — under a bounded worker pool, with per-version result
// caching (a repeated query on an unchanged graph is served from cache,
// byte-identically) and per-request obs spans threaded into responses. See
// Server for the HTTP surface and cmd/powerserve for the binary.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/kernel"
	"powergraph/internal/obs"
	"powergraph/internal/verify"
)

// MaxServePower bounds the powers an instance will materialize: the
// distributed algorithms serve r ∈ [1, 4] (see internal/harness), and
// unbounded r would let one request allocate a dense n² power graph.
const MaxServePower = 4

// compactPending is the overlay compaction threshold: once more pending
// edits than this accumulate, the instance adopts the materialized view as
// its new base so per-row merge costs stay bounded.
const compactPending = 1 << 12

// maxCachedResults bounds the per-version solve-result cache. Churn already
// swaps the map wholesale, but between churns distinct requests (varying
// seeds, epsilons, …) would otherwise grow it without limit; at the cap the
// map is reset, trading a few recomputes for flat memory.
const maxCachedResults = 1 << 10

// InstanceStats counts what churn and recomputation did over an instance's
// lifetime. All fields are cumulative.
type InstanceStats struct {
	// Batches and Edits count accepted churn batches and the edits in them.
	Batches int64 `json:"batches"`
	Edits   int64 `json:"edits"`
	// DirtyRows is the total number of Gʳ rows recomputed by the
	// incremental splice path; SplicedUpdates and FullUpdates split the
	// per-(batch, r) updates by path taken.
	DirtyRows      int64 `json:"dirtyRows"`
	SplicedUpdates int64 `json:"splicedUpdates"`
	FullUpdates    int64 `json:"fullUpdates"`
	// Compactions counts overlay compactions (base adoption).
	Compactions int64 `json:"compactions"`
	// Solves and CacheHits count query executions and result-cache hits.
	Solves    int64 `json:"solves"`
	CacheHits int64 `json:"cacheHits"`
}

// Instance is one resident graph: the mutable overlay, the current
// materialized view, and every power graph queries have touched, all kept
// consistent under churn. Safe for concurrent use.
type Instance struct {
	id string

	mu      sync.RWMutex
	ov      *graph.Overlay
	view    *graph.Graph
	powers  map[int]*graph.Graph
	version uint64
	stats   InstanceStats

	// results is the per-version solve cache; Churn swaps in a fresh map,
	// so entries never outlive the graph content they were computed on.
	resMu   sync.Mutex
	results map[string]*resEntry

	// oracle is the component-content-keyed exact solver cache. Content
	// keys stay valid across churn, so it persists for the instance's
	// lifetime and only re-solves components that changed.
	oracle *kernel.Incremental
}

// resEntry is one single-flight slot in the per-version result cache.
// Execution is channel-based rather than sync.Once so that when the leader's
// request context is canceled mid-run, waiters whose own contexts are still
// live elect a new leader and re-execute instead of inheriting the 499.
type resEntry struct {
	mu   sync.Mutex
	done chan struct{} // non-nil while an execution is in flight
	resp *SolveResponse
}

// NewInstance wraps g as a resident instance under the given id.
func NewInstance(id string, g *graph.Graph) *Instance {
	return &Instance{
		id:      id,
		ov:      graph.NewOverlay(g),
		view:    g,
		powers:  make(map[int]*graph.Graph),
		results: make(map[string]*resEntry),
		oracle:  kernel.NewIncremental(),
	}
}

// InstanceInfo is the serialized shape of an instance's current state.
type InstanceInfo struct {
	ID      string        `json:"id"`
	N       int           `json:"n"`
	M       int           `json:"m"`
	Version uint64        `json:"version"`
	Powers  []int         `json:"powersCached,omitempty"`
	Pending int           `json:"pendingEdits"`
	Stats   InstanceStats `json:"stats"`
}

// Info snapshots the instance.
func (inst *Instance) Info() InstanceInfo {
	inst.mu.RLock()
	defer inst.mu.RUnlock()
	powers := make([]int, 0, len(inst.powers))
	for r := range inst.powers {
		powers = append(powers, r)
	}
	sort.Ints(powers)
	return InstanceInfo{
		ID: inst.id, N: inst.view.N(), M: inst.view.M(),
		Version: inst.version, Powers: powers,
		Pending: inst.ov.Pending(), Stats: inst.stats,
	}
}

// snapshot reads one mutually consistent (version, view, Gʳ) triple,
// computing and caching the power graph on first use. Churn swaps all three
// under the exclusive lock, so reading them inside a single critical section
// is what guarantees a solve never pairs a view from version N+1 with a Gʳ
// from version N; callers must carry the whole triple rather than re-reading
// any part of it later.
func (inst *Instance) snapshot(r int) (version uint64, view, power *graph.Graph, err error) {
	if r < 1 || r > MaxServePower {
		return 0, nil, nil, fmt.Errorf("serve: power must be in [1, %d], got %d", MaxServePower, r)
	}
	inst.mu.RLock()
	if p := inst.powers[r]; p != nil {
		version, view = inst.version, inst.view
		inst.mu.RUnlock()
		return version, view, p, nil
	}
	inst.mu.RUnlock()
	inst.mu.Lock()
	defer inst.mu.Unlock()
	p := inst.powers[r]
	if p == nil {
		// Computed against the state the exclusive lock pins, so the triple
		// returned below is consistent even if churn ran between the RUnlock
		// above and this Lock.
		p = inst.view.Power(r)
		inst.powers[r] = p
	}
	return inst.version, inst.view, p, nil
}

// power returns Gʳ of the current view, computing and caching it on first
// use. Subsequent churn maintains every cached power incrementally.
func (inst *Instance) power(r int) (*graph.Graph, error) {
	_, _, p, err := inst.snapshot(r)
	return p, err
}

// PowerUpdate reports how one cached Gʳ was brought up to date by a churn
// batch.
type PowerUpdate struct {
	R     int  `json:"r"`
	Dirty int  `json:"dirty"`
	Full  bool `json:"full"`
}

// ChurnResult reports what one accepted churn batch did.
type ChurnResult struct {
	Graph     string        `json:"graph"`
	Version   uint64        `json:"version"`
	Applied   int           `json:"applied"`
	Pending   int           `json:"pendingEdits"`
	Updates   []PowerUpdate `json:"powerUpdates,omitempty"`
	Compacted bool          `json:"compacted"`
}

// Churn applies one batch of edge edits atomically: either every edit is
// applied and every cached power graph is brought up to date (incrementally
// where the dirty region is small), or the overlay is left untouched and the
// offending edit is reported. The solve cache is invalidated either way the
// batch succeeds; the component-keyed oracle cache survives.
func (inst *Instance) Churn(edits []graph.EdgeEdit) (*ChurnResult, error) {
	if len(edits) == 0 {
		return nil, fmt.Errorf("serve: empty churn batch")
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := inst.ov.Apply(edits); err != nil {
		return nil, err
	}
	view := inst.ov.Materialize()
	res := &ChurnResult{Graph: inst.id, Applied: len(edits)}
	rs := make([]int, 0, len(inst.powers))
	for r := range inst.powers {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	for _, r := range rs {
		p, st := graph.IncrementalPower(view, inst.powers[r], r, edits)
		inst.powers[r] = p
		res.Updates = append(res.Updates, PowerUpdate{R: r, Dirty: st.Dirty, Full: st.Full})
		inst.stats.DirtyRows += int64(st.Dirty)
		if st.Full {
			inst.stats.FullUpdates++
		} else {
			inst.stats.SplicedUpdates++
		}
	}
	inst.view = view
	if inst.ov.Pending() > compactPending {
		inst.ov.Compact(view)
		inst.stats.Compactions++
		res.Compacted = true
	}
	inst.version++
	inst.stats.Batches++
	inst.stats.Edits += int64(len(edits))
	res.Version = inst.version
	res.Pending = inst.ov.Pending()

	inst.resMu.Lock()
	inst.results = make(map[string]*resEntry)
	inst.resMu.Unlock()
	return res, nil
}

// SolveRequest selects one query against a resident graph. The zero values
// of Power and Shards pick the defaults the sweep harness uses. Engine is
// accepted for clients written when the simulator had two engines: "" and
// "batch" change nothing, anything else is rejected (harness.CheckEngine).
type SolveRequest struct {
	Algorithm string  `json:"algorithm"`
	Power     int     `json:"power,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Engine    string  `json:"engine,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	MaxRounds int     `json:"maxRounds,omitempty"`
	Gather    string  `json:"gather,omitempty"`
	// Oracle requests the exact optimum and approximation ratio, computed
	// through the instance's component-cached exact solver.
	Oracle bool `json:"oracle,omitempty"`
}

// SolveResponse is one query's result. Every field except DurationMs is a
// deterministic function of (graph content, request), which is what the
// golden smoke tests pin down.
type SolveResponse struct {
	Graph   string `json:"graph"`
	Version uint64 `json:"version"`
	// Cached reports that the response was served from the per-version
	// result cache rather than a fresh solve.
	Cached    bool   `json:"cached"`
	Algorithm string `json:"algorithm"`
	Model     string `json:"model,omitempty"`
	Problem   string `json:"problem,omitempty"`
	Power     int    `json:"power"`
	N         int    `json:"n"`
	M         int    `json:"m"`

	Cost         int64   `json:"cost"`
	SolutionSize int     `json:"solutionSize"`
	Verified     bool    `json:"verified"`
	Optimum      int64   `json:"optimum,omitempty"`
	Ratio        float64 `json:"ratio,omitempty"`

	Rounds    int    `json:"rounds,omitempty"`
	Messages  int64  `json:"messages,omitempty"`
	TotalBits int64  `json:"totalBits,omitempty"`
	Bandwidth int    `json:"bandwidth,omitempty"`
	Spans     string `json:"spans,omitempty"`

	// DurationMs is the solve's wall-clock time (0 on cache hits);
	// excluded from golden comparisons.
	DurationMs float64 `json:"durationMs"`

	Error    string `json:"error,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// cacheKey canonicalizes a request for the per-version result cache. The
// version is part of the key defensively (the map is already swapped on
// churn).
func (inst *Instance) cacheKey(req SolveRequest, version uint64) string {
	b, _ := json.Marshal(req)
	return fmt.Sprintf("v%d:%s", version, b)
}

// Solve answers one query. Identical requests against the same graph
// version share one execution and return identical responses (the repeat
// marked Cached); ctx cancels an in-flight distributed run at its next
// round barrier. The (version, view, Gʳ) triple the solve runs on is read in
// one snapshot, so the response's Version always labels the exact content it
// was computed on even while churn runs concurrently.
func (inst *Instance) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	if req.Power == 0 {
		req.Power = 2
	}
	version, view, power, err := inst.snapshot(req.Power)
	if err != nil {
		return nil, err
	}

	key := inst.cacheKey(req, version)
	inst.resMu.Lock()
	e := inst.results[key]
	if e == nil {
		if len(inst.results) >= maxCachedResults {
			inst.results = make(map[string]*resEntry)
		}
		e = &resEntry{}
		inst.results[key] = e
	}
	inst.resMu.Unlock()

	for {
		e.mu.Lock()
		if e.resp != nil {
			resp := *e.resp
			e.mu.Unlock()
			resp.Cached = true
			resp.DurationMs = 0
			inst.mu.Lock()
			inst.stats.CacheHits++
			inst.mu.Unlock()
			return &resp, nil
		}
		if e.done == nil {
			// No execution in flight: lead one under this request's context.
			ch := make(chan struct{})
			e.done = ch
			e.mu.Unlock()
			resp, err := inst.solveUncached(ctx, req, version, view, power)
			e.mu.Lock()
			e.done = nil
			if err == nil {
				e.resp = resp
			}
			e.mu.Unlock()
			close(ch)
			if err != nil {
				// A canceled or failed execution must not poison the cache
				// for the next identical request.
				inst.resMu.Lock()
				if inst.results[key] == e {
					delete(inst.results, key)
				}
				inst.resMu.Unlock()
				return nil, err
			}
			out := *resp
			return &out, nil
		}
		ch := e.done
		e.mu.Unlock()
		select {
		case <-ch:
			// Leader finished: either a result is cached now, or its run was
			// aborted (typically by its own client disconnecting), in which
			// case the loop elects a new leader under this caller's still-live
			// context instead of propagating someone else's cancellation.
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", ErrSolveCanceled, ctx.Err())
		}
	}
}

func (inst *Instance) solveUncached(ctx context.Context, req SolveRequest, version uint64, view, power *graph.Graph) (*SolveResponse, error) {
	job := harness.Job{
		Generator: harness.GeneratorSpec{Name: "resident"},
		N:         view.N(),
		Power:     req.Power,
		Algorithm: req.Algorithm,
		Epsilon:   req.Epsilon,
		Engine:    req.Engine,
		Seed:      req.Seed,
		Shards:    req.Shards,
		MaxRounds: req.MaxRounds,
		Gather:    req.Gather,
	}
	col := &obs.Collector{}
	jr := harness.SolveInstance(ctx, view, power, job, col, nil)
	if jr.Canceled {
		return nil, fmt.Errorf("%w: %s", ErrSolveCanceled, jr.Error)
	}
	resp := &SolveResponse{
		Graph: inst.id, Version: version,
		Algorithm: req.Algorithm, Model: jr.Model, Problem: jr.Problem,
		Power: req.Power, N: view.N(), M: view.M(),
		Cost: jr.Cost, SolutionSize: jr.SolutionSize, Verified: jr.Verified,
		Rounds: jr.Rounds, Messages: jr.Messages, TotalBits: jr.TotalBits,
		Bandwidth: jr.Bandwidth, Spans: jr.Spans,
		DurationMs: float64(jr.Elapsed.Nanoseconds()) / 1e6,
		Error:      jr.Error,
	}
	if jr.Error == "" && req.Oracle {
		var optSol = inst.oracle.VertexCover
		if jr.Problem == harness.ProblemMDS {
			optSol = inst.oracle.DominatingSet
		}
		resp.Optimum = verify.Cost(power, optSol(power))
		resp.Ratio = verify.RatioOf(resp.Cost, resp.Optimum).Value
	}
	inst.mu.Lock()
	inst.stats.Solves++
	inst.mu.Unlock()
	return resp, nil
}

// ErrSolveCanceled marks a query aborted by its request context.
var ErrSolveCanceled = fmt.Errorf("serve: solve canceled")
