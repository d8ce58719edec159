package congest

import "sync"

// The sharded sweep: Config.Shards > 1 splits the per-round node sweep into
// contiguous node-id ranges advanced by a persistent worker pool, while
// everything with cross-node visibility — message delivery, statistics,
// span reference counting, tracer events, error selection — stays on the
// coordinator goroutine at the round barrier.
//
// Determinism is the whole design: the sequential sweep steps nodes in
// ascending id order and its observable side effects (sender registration
// order, span mark order, "first error wins") all inherit that order.
// Workers therefore never touch shared engine state; each side effect is
// staged in the worker's shardState, and the barrier merges the shards in
// ascending shard order — which, because shards are contiguous ascending id
// ranges swept in ascending id order, replays exactly the sequential
// sweep's global order. The merged state then drives the unchanged
// deliver/traceRound path, so results, Stats, spans, and trace streams
// are byte-identical to Shards ≤ 1 at any shard count.
//
// Memory stays flat per round: the staging slices are truncated and reused
// across rounds, the worker pool is created once per run, and no goroutine
// is ever spawned per node or per round.

// spanMark is one staged SpanBegin/SpanEnd call recorded during a sharded
// sweep, replayed against the engine's span reference counts at the
// barrier (still within the mark's round).
type spanMark struct {
	name  string
	index int
	end   bool
}

// shardState is one worker's staging area. Only its owning worker touches
// it during a sweep; only the coordinator touches it between sweeps. The
// trailing pad keeps adjacent shardStates out of each other's cache lines.
type shardState struct {
	lo, hi   int // node-id range [lo, hi)
	finished int // nodes of this shard that finished in the last sweep

	// senders lists the shard's nodes that queued messages this round, in
	// ascending id order (the in-shard sweep order).
	senders []int
	// marks stages SpanBegin/SpanEnd calls in call order.
	marks []spanMark
	// err is the shard's first node error this round (= lowest failing id,
	// because the in-shard sweep is sequential in id order).
	err error
	// view is the shard's scratch buffer for a broadcaster's own view of a
	// broadcast-only round (see engine.broadcastView).
	view []Incoming

	_ [64]byte // false-sharing pad
}

// startShards starts one persistent worker per shard, each running sweep on
// its own node range whenever the coordinator starts a round. It returns
// the coordinator's round sweep — start every worker, wait for all, merge
// the staged side effects — and the function that stops the pool.
func (e *engine) startShards(sweep func(lo, hi int) int) (sweepRound func() int, stop func()) {
	n := len(e.nodes)
	e.shardStates = make([]shardState, e.shards)
	starts := make([]chan struct{}, e.shards)
	var wg sync.WaitGroup
	for k := range e.shardStates {
		sh := &e.shardStates[k]
		sh.lo, sh.hi = k*n/e.shards, (k+1)*n/e.shards
		for i := sh.lo; i < sh.hi; i++ {
			e.nodes[i].sh = sh
		}
		starts[k] = make(chan struct{}, 1)
		go func(start <-chan struct{}) {
			// One worker per shard for the whole run, so every node is
			// always stepped by the same goroutine.
			for range start {
				sh.finished = sweep(sh.lo, sh.hi)
				wg.Done()
			}
		}(starts[k])
	}
	sweepRound = func() int {
		wg.Add(e.shards)
		for _, c := range starts {
			c <- struct{}{}
		}
		wg.Wait()
		return e.mergeShards()
	}
	stop = func() {
		for _, c := range starts {
			close(c)
		}
	}
	return sweepRound, stop
}

// mergeShards is the barrier merge, in shard order = ascending node-id
// order: it concatenates the sender lists, replays the span marks, adopts
// the lowest shard's error, and returns how many nodes finished. Span marks
// replay before the round loop's error check so an aborting run has
// emitted exactly the span events the sequential sweep had at its abort
// point.
func (e *engine) mergeShards() (finished int) {
	for k := range e.shardStates {
		sh := &e.shardStates[k]
		finished += sh.finished
		e.senders = append(e.senders, sh.senders...)
		sh.senders = sh.senders[:0]
		for _, mk := range sh.marks {
			if mk.end {
				e.spanEnd(mk.name, mk.index)
			} else {
				e.spanBegin(mk.name, mk.index)
			}
		}
		sh.marks = sh.marks[:0]
		if sh.err != nil && e.firstErr == nil {
			e.firstErr = sh.err
		}
		sh.err = nil
	}
	return finished
}
