package main

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

// replayOp is the span op id of the traced run's replays, above every
// request id.
const replayOp = 1 << 40

// answerKey identifies one answer: a request on one version of the graph.
type answerKey struct {
	req     serve.SolveRequest
	version uint64
}

// normalized drops the fields that may differ between a fresh answer and a
// cached repeat of it.
func normalized(r serve.SolveResponse) serve.SolveResponse {
	r.Cached, r.DurationMs = false, 0
	return r
}

// check applies the serving correctness gate to one open-loop run: every
// request succeeds, every solve is verified, every answer to a request on a
// graph version equals every other answer to it (a cached repeat equals its
// cold original), churn versions run 1, 2, … without gaps or repeats, and
// the final edge count equals the benchmark's mirror of the churn.
func (sl serveLoad) check(res *result, env *serveEnv, lr *loadRun) {
	res.Attempted += len(lr.outs)
	seen := map[answerKey]serve.SolveResponse{}
	for i, w := range sl.warm {
		seen[answerKey{w, 0}] = normalized(*env.originals[i])
	}
	var versions []uint64
	for i := range lr.outs {
		o := &lr.outs[i]
		switch {
		case o.err != "":
			res.Failed++
			res.problem("request %d: %s", o.id, o.err)
		case o.edges:
			versions = append(versions, o.churned.Version)
		case !o.answer.Verified:
			res.Failed++
			res.problem("request %d: %s r=%d answer is not feasible", o.id, o.answer.Algorithm, o.answer.Power)
		default:
			k := answerKey{o.request.solve, o.answer.Version}
			got := normalized(*o.answer)
			if want, ok := seen[k]; !ok {
				seen[k] = got
			} else if got != want {
				res.Failed++
				res.problem("request %d: %s r=%d answer (cached=%v) differs from an earlier answer on version %d",
					o.id, o.answer.Algorithm, o.answer.Power, o.answer.Cached, o.answer.Version)
			}
		}
	}
	slices.Sort(versions)
	for i, v := range versions {
		if v != uint64(i+1) {
			res.problem("churn versions are not 1..%d: position %d holds %d", len(versions), i, v)
			break
		}
	}
	if lr.final.Version != uint64(len(versions)) {
		res.problem("final version %d after %d acknowledged batches", lr.final.Version, len(versions))
	}
	if lr.final.M != lr.mirrorM {
		res.problem("final edge count %d, the benchmark's mirror of the churn says %d", lr.final.M, lr.mirrorM)
	}
}

// loadMetrics reports the end-to-end latency and CPU metrics of an open-loop
// run over all of its requests: the p50 and p95 latency, and the process CPU
// time of the load per request.
func loadMetrics(res *result, lr *loadRun) {
	lat := make([]float64, len(lr.outs))
	for i := range lr.outs {
		lat[i] = ms(lr.outs[i].latency())
	}
	res.set("op_p50_ms", quantile(lat, 0.50))
	res.set("op_p95_ms", quantile(lat, 0.95))
	res.set("cpu_ms_per_op", ratio(ms(lr.cpu), float64(len(lat))))
}

// classDetail records request counts and latency quantiles per request
// class (hot solve, cold solve, churn batch) for the result file, and the
// connections' utilization: the share of the load's wall time that a
// connection had a request in flight, averaged over the connections. Near
// 1, requests queue for a connection and latency measures the queue.
func (sl serveLoad) classDetail(res *result, lr *loadRun) {
	outs := lr.outs
	lat := map[string][]float64{}
	cached := 0
	var inFlight time.Duration
	for i := range outs {
		o := &outs[i]
		inFlight += o.roundTrip()
		class := "hot"
		switch {
		case o.edges:
			class = "edges"
		case o.request.solve.Seed >= coldSeedBase:
			class = "cold"
		}
		if o.answer != nil && o.answer.Cached {
			cached++
		}
		lat[class] = append(lat[class], ms(o.latency()))
	}
	for class, xs := range lat {
		res.Detail[class+"Requests"] = len(xs)
		res.Detail[class+"P50Ms"] = quantile(xs, 0.50)
		res.Detail[class+"P95Ms"] = quantile(xs, 0.95)
	}
	res.Detail["cachedSolves"] = cached
	res.Detail["rateRps"] = sl.rate
	res.Detail["connUtilization"] = ratio(float64(inFlight), float64(lr.wall)*serveConns)
}

// serveLayers reports the serving layer's per-layer metrics from the traced
// run: where request latency went (connection wait, transport, handler), the
// cache's hit share, and how long cold solves waited inside the handler
// beyond their solve time. It also records the client-side spans, and
// returns the summed handler time of the churn batches.
func (sl serveLoad) serveLayers(res *result, rec *recorder, h *handlerLog, outs []outcome, wall time.Duration) time.Duration {
	var latSum, connWait, transport, hSolve, hEdges, coldHandler, coldSolve time.Duration
	var maxLate time.Duration
	solves, cached := 0, 0
	dirty := map[int][]float64{}
	full3, n3 := 0, 0
	for i := range outs {
		o := &outs[i]
		root := rec.add("serve.request", o.id, 0, o.dueAt, o.doneAt)
		rec.add("serve.conn_wait", o.id, root, o.dueAt, o.sentAt)
		rec.add("serve.round_trip", o.id, root, o.sentAt, o.doneAt)
		maxLate = max(maxLate, o.late)
		if o.err != "" {
			continue
		}
		hd := h.get(o.id)
		latSum += o.latency()
		connWait += o.connWait()
		transport += o.roundTrip() - hd
		if o.edges {
			hEdges += hd
			for _, u := range o.churned.Updates {
				dirty[u.R] = append(dirty[u.R], float64(u.Dirty))
				if u.R == 3 {
					n3++
					if u.Full {
						full3++
					}
				}
			}
			continue
		}
		hSolve += hd
		solves++
		if o.answer.Cached {
			cached++
			continue
		}
		d := time.Duration(o.answer.DurationMs * float64(time.Millisecond))
		coldHandler += hd
		coldSolve += d
	}
	res.set("bench.sched_late_ms.max", ms(maxLate))
	res.set("serve.cache_hit_frac", ratio(float64(cached), float64(solves)))
	res.set("serve.conn_wait_frac", ratio(float64(connWait), float64(latSum)))
	res.set("serve.transport_frac", ratio(float64(transport), float64(latSum)))
	res.set("serve.handler_frac.solve", ratio(float64(hSolve), float64(latSum)))
	res.set("serve.handler_frac.edges", ratio(float64(hEdges), float64(latSum)))
	res.set("serve.lock_wait_frac", ratio(float64(coldHandler-coldSolve), float64(coldHandler)))
	res.set("harness.utilization", ratio(float64(coldSolve), float64(wall)*float64(runtime.GOMAXPROCS(0))))
	res.set("graph.dirty_rows.r2", meanOf(dirty[2]))
	res.set("graph.dirty_rows.r3", meanOf(dirty[3]))
	res.set("graph.full_frac.r3", ratio(float64(full3), float64(n3)))
	return hEdges
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// replay re-runs, outside the server and timed layer by layer, what the
// traced load made the server do: the churn batches in version order
// against a graph.Overlay (whose dirty-row counts must match the server's),
// then every warm solve once on the final graph through
// harness.SolveInstance (whose answer must match the server's answer to the
// same request on that version, when there is one).
func (sl serveLoad) replay(ctx context.Context, res *result, rec *recorder, env *serveEnv, outs []outcome, hEdges time.Duration) error {
	op := int64(replayOp)
	var g *graph.Graph
	var err error
	rec.timed("graph.build", op, 0, func() { g, err = sl.buildGraph() })
	if err != nil {
		return err
	}
	powers := map[int]*graph.Graph{}
	for _, w := range sl.warm {
		if powers[w.Power] == nil {
			rec.timed("graph.power", op, 0, func() { powers[w.Power] = g.Power(w.Power) })
		}
	}
	rs := make([]int, 0, len(powers))
	for r := range powers {
		rs = append(rs, r)
	}
	sort.Ints(rs)

	var batches []*outcome
	for i := range outs {
		if outs[i].edges && outs[i].err == "" {
			batches = append(batches, &outs[i])
		}
	}
	sort.Slice(batches, func(a, b int) bool { return batches[a].churned.Version < batches[b].churned.Version })
	ov := graph.NewOverlay(g)
	view := g
	var tApply, tMat, tInc time.Duration
	for _, b := range batches {
		tApply += rec.timed("graph.apply", op, 0, func() { err = ov.Apply(b.edits) })
		if err != nil {
			res.problem("replaying churn version %d: %v", b.churned.Version, err)
			break
		}
		tMat += rec.timed("graph.materialize", op, 0, func() { view = ov.Materialize() })
		for i, r := range rs {
			var st graph.IncPowerStats
			tInc += rec.timed("graph.incpower", op, 0, func() {
				powers[r], st = graph.IncrementalPower(view, powers[r], r, b.edits)
			})
			want := serve.PowerUpdate{R: r, Dirty: st.Dirty, Full: st.Full}
			if i >= len(b.churned.Updates) || b.churned.Updates[i] != want {
				res.problem("churn version %d: server reported updates %+v, the replay computed %+v for r=%d",
					b.churned.Version, b.churned.Updates, want, r)
			}
		}
	}
	res.set("graph.edges_frac.apply", ratio(float64(tApply), float64(hEdges)))
	res.set("graph.edges_frac.materialize", ratio(float64(tMat), float64(hEdges)))
	res.set("graph.edges_frac.incpower", ratio(float64(tInc), float64(hEdges)))

	final := uint64(len(batches))
	answers := map[answerKey]*serve.SolveResponse{}
	for i := range outs {
		if o := &outs[i]; !o.edges && o.err == "" {
			answers[answerKey{o.request.solve, o.answer.Version}] = o.answer
		}
	}
	for i, w := range sl.warm {
		answers[answerKey{w, 0}] = env.originals[i]
	}
	counts := &solveCounts{}
	for i, w := range sl.warm {
		job := harness.Job{
			Generator: harness.GeneratorSpec{Name: "resident"}, N: view.N(), Power: w.Power,
			Algorithm: w.Algorithm, Epsilon: w.Epsilon, Engine: w.Engine, Seed: w.Seed,
			Shards: w.Shards, MaxRounds: w.MaxRounds, Gather: w.Gather,
		}
		jop := op + 1 + int64(i)
		jr, opt := tracedSolve(ctx, rec, counts, jop, 0, view, powers[w.Power], job, w.Oracle)
		if err := ctx.Err(); err != nil {
			return err
		}
		if !timeVerify(rec, jop, powers[w.Power], jr.Problem) {
			res.problem("replayed %s r=%d: reference solution failed verification", w.Algorithm, w.Power)
		}
		want := answers[answerKey{w, final}]
		switch {
		case jr.Error != "" || !jr.Verified:
			res.problem("replayed %s r=%d: error %q, verified %v", w.Algorithm, w.Power, jr.Error, jr.Verified)
		case want != nil && (jr.Cost != want.Cost || jr.SolutionSize != want.SolutionSize ||
			jr.Rounds != want.Rounds || jr.Messages != want.Messages || jr.TotalBits != want.TotalBits ||
			(w.Oracle && opt != want.Optimum)):
			res.problem("replayed %s r=%d differs from the served answer on version %d", w.Algorithm, w.Power, final)
		}
	}
	setSolveLayers(res, rec, counts)
	return nil
}
