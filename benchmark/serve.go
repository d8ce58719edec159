package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

// serveConns is the number of HTTP connections the load generator sends on:
// one per core of the two-core machine the bounds were calibrated on.
const serveConns = 2

// coldSeedBase offsets the seeds of cold requests past every seed a hot
// entry uses, so each cold request misses the result cache.
const coldSeedBase = 1_000_000

// requestHeader carries a request's id to the handler-timing middleware of
// the traced run.
const requestHeader = "X-Bench-Request"

// setupRepeats is how many times a serving run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 3

// serveLoad is an open-loop serving workload: an in-process serve.Server
// behind httptest, a resident graph, and arrivals at a constant rate sent on
// serveConns connections. Each request is timed from its due time, so a
// stall delays the requests behind it in the measurement too.
//
// The resident graph is part of the workload, like a production data set:
// it is generated from graphSeed, not from the run's seed, which draws the
// traffic (the order of request kinds, hot entries, cold seeds and churned
// edges). A run sends exactly rate × seconds requests in
// fixed proportions, so that runs on different seeds measure the same mix.
type serveLoad struct {
	name      string
	graphID   string
	gen       harness.GeneratorSpec
	n         int
	graphSeed int64
	rate      float64
	// warm are the solves sent during set-up; a hot request repeats one of
	// them. A cold request repeats an entry of cold with a seed never sent
	// before.
	warm, cold []serve.SolveRequest
	// coldFrac and edgesFrac are the shares of cold solves and of churn
	// batches among the requests; the rest are hot solves.
	coldFrac, edgesFrac float64
	// editsPerBatch is the number of inserted (and, once enough inserts are
	// acknowledged, deleted) edges per churn batch.
	editsPerBatch int
}

var (
	// serveRead: the hot set is the five solves of specs/serve-load.json,
	// mvc-congest without an engine (what a client that omits it gets, so
	// the engine default shows in set-up), and mvc-congest with the exact
	// oracle (which fills the oracle cache during set-up). Cold requests are
	// the first entry with fresh seeds, so p95 prices one cold core/congest
	// solve; the 80 % hot requests put p50 on the HTTP, JSON and
	// result-cache path. The proportions are fixed, so p95 always falls
	// inside the cold requests, and cold solves are short enough not to hold
	// up hot ones.
	serveRead = serveLoad{
		name: "serve-read", graphID: "small",
		gen: harness.GeneratorSpec{Name: "connected-gnp", MaxWeight: 40}, n: 200, graphSeed: 7,
		rate: 20,
		warm: []serve.SolveRequest{
			{Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch"},
			{Algorithm: "mvc-congest", Power: 3, Epsilon: 0.5, Engine: "batch"},
			{Algorithm: "mwvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch"},
			{Algorithm: "mds-congest", Power: 2, Engine: "batch"},
			{Algorithm: "gavril", Power: 2},
			{Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5},
			{Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch", Oracle: true},
		},
		cold:     []serve.SolveRequest{{Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch"}},
		coldFrac: 0.2,
	}
	// serveChurn: edge batches beside centralized solves on a large sparse
	// graph whose G² and G³ stay materialized, so the graph layer's
	// incremental maintenance and the instance lock dominate. Batches are
	// 75 % of the requests, so both quantiles fall well inside the batches
	// (p50 at their first third) rather than on the boundary between batches
	// and the faster solves.
	serveChurn = serveLoad{
		name: "serve-churn", graphID: "large",
		gen: harness.GeneratorSpec{Name: "connected-gnm", AvgDeg: 4}, n: 20000, graphSeed: 7,
		rate: 20,
		warm: []serve.SolveRequest{
			{Algorithm: "gavril", Power: 2},
			{Algorithm: "gavril", Power: 3},
		},
		edgesFrac:     0.75,
		editsPerBatch: 4,
	}
)

// request is one scheduled request of an open-loop run.
type request struct {
	id    int64
	due   time.Duration // since the start of the load
	edges bool
	solve serve.SolveRequest
}

// outcome is what one request returned, with its client-side timestamps.
type outcome struct {
	request
	edits []graph.EdgeEdit
	// dueAt is when the request was due, late how long after it the
	// dispatcher handed it to the connections, sentAt when a connection
	// sent it, and doneAt when its response had been read.
	dueAt, sentAt, doneAt time.Time
	late                  time.Duration
	err                   string
	answer                *serve.SolveResponse
	churned               *serve.ChurnResult
}

func (o *outcome) latency() time.Duration   { return o.doneAt.Sub(o.dueAt) }
func (o *outcome) connWait() time.Duration  { return o.sentAt.Sub(o.dueAt) }
func (o *outcome) roundTrip() time.Duration { return o.doneAt.Sub(o.sentAt) }

// serveEnv is one set-up server with its resident graph warmed.
type serveEnv struct {
	ts        *httptest.Server
	handlers  *handlerLog // nil unless traced
	originals []*serve.SolveResponse
	m         int
}

func (sl serveLoad) scaled(cfg runConfig) serveLoad {
	if cfg.tiny {
		sl.n = min(sl.n, tinyN)
	}
	if cfg.rateScale > 0 {
		sl.rate *= cfg.rateScale
	}
	return sl
}

func (sl serveLoad) buildGraph() (*graph.Graph, error) {
	return sl.gen.Build(sl.n, rand.New(rand.NewSource(sl.graphSeed)))
}

// setup starts a server, creates the resident graph over HTTP, and sends
// every warm solve once (materializing the powers they use and filling the
// result cache and, for oracle requests, the component-keyed oracle cache).
func (sl serveLoad) setup(ctx context.Context, handlers *handlerLog) (*serveEnv, error) {
	var h http.Handler = serve.New(serve.Options{}).Handler()
	if handlers != nil {
		h = handlers.wrap(h)
	}
	env := &serveEnv{ts: httptest.NewServer(h), handlers: handlers}
	client := env.ts.Client()
	var info serve.InstanceInfo
	create := serve.CreateGraphRequest{ID: sl.graphID, Generator: &sl.gen, N: sl.n, Seed: sl.graphSeed}
	if err := postJSON(ctx, client, env.ts.URL+"/v1/graphs", create, &info); err != nil {
		env.ts.Close()
		return nil, err
	}
	env.m = info.M
	for _, w := range sl.warm {
		var resp serve.SolveResponse
		if err := postJSON(ctx, client, env.ts.URL+sl.path(false), w, &resp); err != nil {
			env.ts.Close()
			return nil, err
		}
		env.originals = append(env.originals, &resp)
	}
	return env, nil
}

func (sl serveLoad) path(edges bool) string {
	if edges {
		return "/v1/graphs/" + sl.graphID + "/edges"
	}
	return "/v1/graphs/" + sl.graphID + "/solve"
}

func postJSON(ctx context.Context, client *http.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// schedule draws the run's requests: round(rate × d) arrivals, evenly
// spaced over d, so they arrive at a constant rate, as wrk2 and vegeta pace
// them. The shares edgesFrac and coldFrac of them, rounded, are churn
// batches and cold solves, in random order, and the rest hot solves, so
// every run measures the same mix. Pacing keeps random bursts from queueing
// requests on the instance lock, which would make p95 count a seed's bursts
// more than the layers' work.
func (sl serveLoad) schedule(seed int64, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(sl.rate * d.Seconds()))
	nEdges := int(math.Round(sl.edgesFrac * float64(n)))
	nCold := int(math.Round(sl.coldFrac * float64(n)))
	gap := float64(d) / float64(n)
	reqs := make([]request, n)
	for i, k := range rng.Perm(n) {
		r := request{id: int64(i), due: time.Duration((float64(i) + 0.5) * gap)}
		switch {
		case k < nEdges:
			r.edges = true
		case k < nEdges+nCold:
			r.solve = sl.cold[rng.Intn(len(sl.cold))]
			r.solve.Seed = coldSeedBase + r.id
		default:
			r.solve = sl.warm[rng.Intn(len(sl.warm))]
		}
		reqs[i] = r
	}
	return reqs
}

func (sl serveLoad) run(ctx context.Context, cfg runConfig) (*result, error) {
	sl = sl.scaled(cfg)
	res := newResult(sl.name, cfg)
	base, err := sl.buildGraph()
	if err != nil {
		return nil, err
	}

	// Set-up, setupRepeats times in a row, each on a fresh server; the last
	// one serves the load. The warm solves run on the fixed resident graph,
	// so their answers are the same in every set-up and every run: their
	// summed cost is cost_sum, the quality guard.
	var env *serveEnv
	var first []*serve.SolveResponse
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.ts.Close()
		}
		start := time.Now()
		if env, err = sl.setup(ctx, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if first == nil {
			first = env.originals
		}
		for j, o := range env.originals {
			if normalized(*o) != normalized(*first[j]) {
				res.Failed++
				res.problem("set-up %d: warm %s r=%d answer differs from the first set-up's", i, o.Algorithm, o.Power)
			}
		}
	}
	var cost int64
	for _, o := range first {
		cost += o.Cost
	}
	res.Detail["setupSeconds"] = append([]float64(nil), secs...)
	res.Detail["referenceCost"] = cost
	res.set("setup_s", median(secs))
	res.set("cost_sum", float64(cost))

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	reqs := sl.schedule(cfg.seed, d)
	lr, err := sl.load(ctx, env, base, cfg.seed, reqs)
	env.ts.Close()
	if err != nil {
		return nil, err
	}
	sl.check(res, env, lr)
	sl.classDetail(res, lr)
	loadMetrics(res, lr)
	if !cfg.trace {
		return res, nil
	}

	// Traced variant: the same schedule again on a fresh server whose
	// handler is wrapped in the timing middleware, then replays of the
	// recorded churn and of every warm solve, each layer timed around the
	// call into it.
	rec := newRecorder()
	tenv, err := sl.setup(ctx, &handlerLog{rec: rec, byID: map[int64]time.Duration{}})
	if err != nil {
		return nil, err
	}
	tr, err := sl.load(ctx, tenv, base, cfg.seed, reqs)
	tenv.ts.Close()
	if err != nil {
		return nil, err
	}
	sl.check(res, tenv, tr)
	res.set("bench.trace_overhead_frac", ratio(meanLatency(tr.outs), meanLatency(lr.outs))-1)
	hEdges := sl.serveLayers(res, rec, tenv.handlers, tr.outs, tr.wall)
	if err := sl.replay(ctx, res, rec, tenv, tr.outs, hEdges); err != nil {
		return nil, err
	}
	return res, rec.write(cfg.outDir, sl.name)
}

func meanLatency(outs []outcome) float64 {
	var sum time.Duration
	for i := range outs {
		sum += outs[i].latency()
	}
	return ratio(float64(sum), float64(len(outs)))
}

// loadRun is one open-loop run: the outcomes in request order, the resident
// graph's state after it, and the edge count the benchmark's mirror of the
// churn expects. cpu is the process CPU time and wall the wall time from the
// start of the load to the final response.
type loadRun struct {
	outs      []outcome
	final     serve.InstanceInfo
	mirrorM   int
	cpu, wall time.Duration
}

// load sends the scheduled requests at their due times on serveConns
// connections and collects what they returned.
func (sl serveLoad) load(ctx context.Context, env *serveEnv, base *graph.Graph, seed int64, reqs []request) (*loadRun, error) {
	ch := newChurner(base, seed, sl.editsPerBatch, env.m)
	outs := make([]outcome, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks and a
	// request that finds both connections busy waits in the queue, on the
	// clock.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(serveConns)
	start, cpu0 := time.Now().Add(10*time.Millisecond), cpuTime()
	for c := 0; c < serveConns; c++ {
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := range queue {
				sl.send(ctx, client, env.ts.URL, &outs[i])
				if outs[i].edges {
					ch.done(outs[i].edits, outs[i].err == "")
				}
			}
		}()
	}

	timer := time.NewTimer(0)
	<-timer.C
	waitUntil := func(t time.Time) bool {
		if wait := time.Until(t); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return false
			}
		}
		return true
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		if !waitUntil(due) {
			break
		}
		outs[i] = outcome{request: r, dueAt: due, late: time.Since(due)}
		if r.edges {
			outs[i].edits = ch.next()
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lr := &loadRun{outs: outs, mirrorM: ch.m, cpu: cpuTime() - cpu0, wall: time.Since(start)}
	if err := getJSON(ctx, env.ts.Client(), env.ts.URL+"/v1/graphs/"+sl.graphID, &lr.final); err != nil {
		return nil, err
	}
	return lr, nil
}

// send performs one request and fills in its timestamps and decoded
// response.
func (sl serveLoad) send(ctx context.Context, client *http.Client, url string, o *outcome) {
	var body any = o.request.solve
	if o.edges {
		type edit struct {
			U   int  `json:"u"`
			V   int  `json:"v"`
			Del bool `json:"del,omitempty"`
		}
		batch := struct {
			Edits []edit `json:"edits"`
		}{}
		for _, e := range o.edits {
			batch.Edits = append(batch.Edits, edit{e.U, e.V, e.Del})
		}
		body = batch
	}
	b, err := json.Marshal(body)
	if err != nil {
		o.err = err.Error()
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+sl.path(o.edges), bytes.NewReader(b))
	if err != nil {
		o.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, strconv.FormatInt(o.id, 10))
	o.sentAt = time.Now()
	resp, err := client.Do(req)
	var data []byte
	status := 0
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	o.doneAt = time.Now()
	switch {
	case err != nil:
		o.err = err.Error()
	case status != http.StatusOK:
		o.err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))
	case o.edges:
		o.churned = &serve.ChurnResult{}
		err = json.Unmarshal(data, o.churned)
	default:
		o.answer = &serve.SolveResponse{}
		err = json.Unmarshal(data, o.answer)
	}
	if err != nil && o.err == "" {
		o.err = err.Error()
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// churner generates churn batches and mirrors their effect on the edge
// count. Each batch inserts editsPerBatch random non-edges and deletes the
// oldest benchmark-inserted edges whose insertion was acknowledged, so the
// edge count stays steady and no batch can conflict with one in flight.
type churner struct {
	mu       sync.Mutex
	rng      *rand.Rand
	base     *graph.Graph
	perBatch int
	live     map[[2]int]bool // inserted, and not yet deleted with acknowledgement
	acked    [][2]int        // acknowledged insertions not yet scheduled for deletion
	m        int             // the edge count the acknowledged batches leave
}

func newChurner(base *graph.Graph, seed int64, perBatch, m int) *churner {
	return &churner{rng: rand.New(rand.NewSource(seed + 1)), base: base, perBatch: perBatch, live: map[[2]int]bool{}, m: m}
}

func (c *churner) next() []graph.EdgeEdit {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.base.N()
	var edits []graph.EdgeEdit
	for len(edits) < c.perBatch {
		u, v := c.rng.Intn(n), c.rng.Intn(n)
		if u == v {
			continue
		}
		e := [2]int{min(u, v), max(u, v)}
		if c.live[e] || c.base.HasEdge(u, v) {
			continue
		}
		c.live[e] = true
		edits = append(edits, graph.EdgeEdit{U: e[0], V: e[1]})
	}
	k := min(c.perBatch, len(c.acked))
	for _, e := range c.acked[:k] {
		edits = append(edits, graph.EdgeEdit{U: e[0], V: e[1], Del: true})
	}
	c.acked = c.acked[k:]
	return edits
}

// done records a batch's acknowledgement (ok) or failure.
func (c *churner) done(edits []graph.EdgeEdit, ok bool) {
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range edits {
		key := [2]int{e.U, e.V}
		if e.Del {
			delete(c.live, key)
			c.m--
		} else {
			c.acked = append(c.acked, key)
			c.m++
		}
	}
}

// handlerLog is the traced run's middleware around serve.Server.Handler:
// it times each request's handler and records it as a serve.handler span
// under the request's id.
type handlerLog struct {
	rec  *recorder
	mu   sync.Mutex
	byID map[int64]time.Duration
}

func (h *handlerLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		if err != nil {
			return // set-up traffic
		}
		h.rec.add("serve.handler", id, 0, start, end)
		h.mu.Lock()
		h.byID[id] = end.Sub(start)
		h.mu.Unlock()
	})
}

func (h *handlerLog) get(id int64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.byID[id]
}
