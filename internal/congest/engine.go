package congest

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"powergraph/internal/bitset"
	"powergraph/internal/obs"
)

// The engine: a single scheduler goroutine advances every node once per
// round (in id order, one sweep under one deferred recover) and then
// delivers the round's messages by counting sort into one flat inbox,
// reusing every buffer across rounds. There is no per-node goroutine, no
// channel, and no per-round allocation in the loop. A round that queued no
// message, in which every live node promised to stay idle (Node.Idle), is
// followed by one Skip call per live program instead of the sweeps of the
// promised rounds.
//
// Determinism follows from three invariants: nodes only interact at round
// boundaries, senders are processed in id order (so every node's inbox
// range is sorted by sender), and a round is counted (and its messages
// delivered) exactly when at least one node is still running after the
// sweep. A round whose only sends are all-node broadcasts (CONGESTED
// CLIQUE) skips the counting sort: its inbox is one entry per broadcaster,
// shared by every node's Recv (see gatherBroadcasts).

// engine is the per-run simulation state. Everything but the nodes' own
// outboxes is touched only by the coordinator goroutine (the sharded sweep
// stages node-side effects per shard and replays them at the barrier), so
// nothing here takes a lock.
type engine struct {
	g         graphLike
	model     Model
	bandwidth int
	maxRounds int
	cutA      *bitset.Set
	// ctx cancels the run at the next round barrier; nil means no
	// cancellation (checked via ctxErr, one poll per round).
	ctx context.Context

	// nodes holds every Node value in one allocation.
	nodes    []Node
	stats    Stats
	firstErr error

	// Scheduling: round is the current round and stamp its duplicate-send
	// guard value (round + 1, never zero); senders lists the nodes that
	// queued messages this round, ascending because the sweep runs in id
	// order.
	round   int
	stamp   int
	senders []int

	// Delivery (see deliver): inbox holds the last delivered round's
	// messages grouped by destination, node v's range being
	// inbox[off[v]:off[v+1]]. off has n+2 entries so the counting sort can
	// count into off[v+2] and use off[v+1] as v's write cursor; offDirty
	// reports that off still holds a delivered round's ranges. After a
	// broadcast-only round (bcastRound) inbox instead holds one entry per
	// broadcaster, sorted by sender, and off is clear; view is the
	// sequential sweep's scratch buffer for a broadcaster's own view of it
	// (see broadcastView; each shard has its own).
	inbox      []Incoming
	off        []int32
	offDirty   bool
	bcastRound bool
	view       []Incoming

	// cutSize is |A| for the configured cut (0 without one), so an
	// all-node broadcast's crossings cost O(1).
	cutSize int64

	// shards is the worker count for the per-round node sweep (≤ 1 means
	// sequential); shardStates holds the per-shard staging buffers (see
	// shard.go).
	shards      int
	shardStates []shardState

	// Tracing (see internal/obs). tracer is nil when disabled; wantRounds
	// caches tracer.WantRounds() so per-round events are only built when a
	// tracer actually wants them. seed is kept for the run-start record;
	// seedBase derives the per-node random streams lazily (see Node.Rand).
	tracer     obs.Tracer
	wantRounds bool
	seed       int64
	seedBase   int64

	// Per-round trace accounting, filled by deliver: bits and messages
	// delivered in the last completed round, and the largest single
	// message — which, at one message per directed link per round, is
	// exactly the max single-link bit volume.
	lastBits    int64
	lastMsgs    int64
	lastMaxLink int64

	// spans holds the open spans' reference counts: per-node begin/end
	// marks collapse into one network-wide span event on the 0→1 and →0
	// transitions. Few spans are open at once, so a slice beats a map.
	spans []openSpan
}

// openSpan is one open span instance and its count of per-node marks.
type openSpan struct {
	name  string
	index int
	refs  int
}

// spanBegin records one node's span-begin mark at the current round,
// emitting the tracer event on the first mark for this (name, index). The
// emitted mark carries the cumulative message count as of the round
// boundary: marks fire while the round's steps run (or, sharded, at the
// barrier replay) — in both cases before that round's delivery updates the
// counter — so the snapshot is the traffic delivered before the mark's
// round, at any shard count.
func (e *engine) spanBegin(name string, index int) {
	for i := range e.spans {
		if sp := &e.spans[i]; sp.index == index && sp.name == name {
			sp.refs++
			return
		}
	}
	e.spans = append(e.spans, openSpan{name: name, index: index, refs: 1})
	e.tracer.SpanBegin(obs.Span{Name: name, Index: index, Round: e.round, Msgs: e.stats.Messages})
}

// spanEnd records one node's span-end mark, emitting the tracer event when
// the last mark is withdrawn. Ends without a matching open span are ignored
// so termination paths can close spans unconditionally.
func (e *engine) spanEnd(name string, index int) {
	for i := range e.spans {
		sp := &e.spans[i]
		if sp.index != index || sp.name != name {
			continue
		}
		if sp.refs--; sp.refs == 0 {
			e.spans = slices.Delete(e.spans, i, i+1)
			e.tracer.SpanEnd(obs.Span{Name: name, Index: index, Round: e.round, Msgs: e.stats.Messages})
		}
		return
	}
}

// traceRunStart emits the run-start event, if a tracer is attached.
func (e *engine) traceRunStart() {
	if e.tracer == nil {
		return
	}
	e.tracer.RunStart(obs.RunInfo{
		N:         e.g.N(),
		Model:     e.model.String(),
		Bandwidth: e.bandwidth,
		MaxRounds: e.maxRounds,
		Seed:      e.seed,
	})
}

// traceRound emits the per-round cost event for the round just delivered.
func (e *engine) traceRound(round, active int) {
	if !e.wantRounds {
		return
	}
	e.tracer.Round(obs.RoundEvent{
		Round:    round,
		Active:   active,
		Messages: e.lastMsgs,
		Bits:     e.lastBits,
		MaxLink:  e.lastMaxLink,
	})
}

// traceRunEnd emits the run-end event with the final aggregates.
func (e *engine) traceRunEnd(err error) {
	if e.tracer == nil {
		return
	}
	ev := obs.RunEnd{
		Rounds:           e.stats.Rounds,
		Messages:         e.stats.Messages,
		TotalBits:        e.stats.TotalBits,
		MaxRoundBits:     e.stats.MaxRoundBits,
		MaxRoundMessages: e.stats.MaxRoundMessages,
	}
	if err != nil {
		ev.Error = err.Error()
	}
	e.tracer.RunEnd(ev)
}

// graphLike is the slice of the graph API the engine needs; it exists so
// the engine never mutates the shared graph.
type graphLike interface {
	N() int
	Degree(v int) int
	Adj(v int) []int
	HasEdge(u, v int) bool
	Weight(v int) int64
}

// ctxErr polls the run's context without blocking: nil while the run may
// continue, an error wrapping ErrCanceled and the context's cause once it is
// done. The round loop calls it right after the MaxRounds check at the top
// of each round, so a run aborts at a clean round boundary at any shard
// count.
func (e *engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("%w (%w)", ErrCanceled, context.Cause(e.ctx))
	default:
		return nil
	}
}

// nodeErr records a node failure. On a sharded sweep it is staged in
// the node's shard (each shard keeps its first error, i.e. its lowest-id
// failing node, because the in-shard sweep is sequential in id order); the
// barrier then adopts the lowest shard's error, reproducing exactly the
// "first error in id order" the sequential sweep records. On the
// sequential sweep it goes straight to the engine.
func (e *engine) nodeErr(nd *Node, err error) {
	if sh := nd.sh; sh != nil {
		if sh.err == nil {
			sh.err = err
		}
		return
	}
	if e.firstErr == nil {
		e.firstErr = err
	}
}

// newEngine validates cfg and builds the engine plus its nodes. It does not
// special-case the empty graph — RunProgram returns an empty Result for
// n == 0 before driving the engine.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	bwf := cfg.BandwidthFactor
	if bwf == 0 {
		bwf = 4
	}
	if bwf < 1 {
		return nil, fmt.Errorf("congest: bandwidth factor %d < 1", bwf)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 22
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("congest: negative shard count %d", cfg.Shards)
	}
	n := cfg.Graph.N()
	// Shard counts above n are allowed and simply leave some shards with
	// empty node ranges; the sharded driver's merge handles them like any
	// other shard (the stress suite runs such configurations on purpose).
	shards := max(cfg.Shards, 1)
	eng := &engine{
		g:         cfg.Graph,
		model:     cfg.Model,
		bandwidth: bwf * IDBits(n),
		maxRounds: maxRounds,
		cutA:      cfg.CutA,
		ctx:       cfg.Ctx,
		shards:    shards,
		tracer:    cfg.Tracer,
		seed:      cfg.Seed,
		seedBase:  cfg.Seed * 1_000_003,
		off:       make([]int32, n+2),
	}
	if cfg.Tracer != nil {
		eng.wantRounds = cfg.Tracer.WantRounds()
	}
	if cfg.CutA != nil {
		for v := range min(n, cfg.CutA.Cap()) {
			if cfg.CutA.Contains(v) {
				eng.cutSize++
			}
		}
	}
	eng.stats.Bandwidth = eng.bandwidth
	// One allocation for all node state; per-node duplicate-send guards and
	// random streams are created lazily so a million-node run pays only for
	// what its algorithm uses.
	eng.nodes = make([]Node, n)
	for i := range eng.nodes {
		eng.nodes[i].id = i
		eng.nodes[i].eng = eng
	}
	return eng, nil
}

// RunProgram executes a node program on every node of cfg.Graph under the
// configured model and returns each node's output plus run statistics:
// newProgram is called once per node (in id order, before round 0), the
// resulting program's Step runs once per round, and Outputs[i] is node i's
// Output. Every step is a plain method call — no goroutines, channels, or
// barriers anywhere in the sequential round loop.
//
// The first error — from a Step, a MustSend violation or a panic inside a
// Step, the round limit, or cancellation — aborts the run and is returned.
// Runs are deterministic for a fixed Config (including Seed): nodes
// interact only at the round barrier, and every node's randomness comes
// from its private stream.
func RunProgram[T any](cfg Config, newProgram func(nd *Node) StepProgram[T]) (*Result[T], error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if n == 0 {
		return &Result[T]{}, nil
	}
	s := &sweeper[T]{
		e:       eng,
		progs:   make([]StepProgram[T], n),
		outputs: make([]T, n),
		done:    make([]bool, n),
	}
	skippable := true
	for i := range eng.nodes {
		s.progs[i] = newProgram(&eng.nodes[i])
		_, ok := s.progs[i].(Skipper)
		skippable = skippable && ok
	}
	var skip func(limit int) (int, error)
	if skippable {
		skip = s.skipIdle
	}
	eng.traceRunStart()
	runErr := eng.run(s.sweep, skip)
	eng.traceRunEnd(runErr)
	if runErr != nil {
		return nil, runErr
	}
	return &Result[T]{Outputs: s.outputs, Stats: eng.stats}, nil
}

// sweeper advances a run's node programs; sweep is the whole per-node
// stepping cost of a round.
type sweeper[T any] struct {
	e       *engine
	progs   []StepProgram[T]
	outputs []T
	done    []bool
}

// sweep advances every live node of the id range [lo, hi) by one round, in
// id order, and returns how many of them finished. A failing step (error,
// MustSend violation, or panic) records the node's error and finishes the
// node; the round loop aborts after the sweep, so the nodes after it still
// step this round, exactly as if it had returned its error.
func (s *sweeper[T]) sweep(lo, hi int) (finished int) {
	for lo < hi {
		lo, finished = s.sweepFrom(lo, hi, finished)
	}
	return finished
}

// sweepFrom is sweep's loop under a single deferred recover: it returns
// hi once the range is done, or the id after a node whose step panicked,
// with that node finished and its error recorded.
func (s *sweeper[T]) sweepFrom(i, hi, finished int) (next, fin int) {
	e := s.e
	defer func() {
		if r := recover(); r != nil {
			nd := &e.nodes[i]
			if np, ok := r.(nodePanic); ok {
				e.nodeErr(nd, np.err)
			} else {
				e.nodeErr(nd, fmt.Errorf("congest: node %d panicked: %v [%s]", i, r, obs.StackSummary(2, 6)))
			}
			s.done[i] = true
			next, fin = i+1, finished+1
		}
	}()
	for ; i < hi; i++ {
		if s.done[i] {
			continue
		}
		done, err := s.progs[i].Step(&e.nodes[i])
		if err != nil {
			e.nodeErr(&e.nodes[i], fmt.Errorf("congest: node %d: %w", i, err))
			done = true
		} else if done {
			s.outputs[i] = s.progs[i].Output()
		}
		if done {
			s.done[i] = true
			finished++
		}
	}
	return hi, finished
}

// skipIdle jumps over the idle stretch that follows the current round when
// every live node promised one (Node.Idle) during it: it calls Skip with
// the shortest promise, capped at limit, on every live program and returns
// that count. It returns 0, and skips nothing, when some live node made no
// promise this round. The promises sit in the nodes, each written only by
// the worker that steps the node, and are read here, on the coordinator
// after the barrier, in id order, so the decision is the same at every
// shard count.
func (s *sweeper[T]) skipIdle(limit int) (k int, err error) {
	e := s.e
	k = limit
	for i := range s.progs {
		if s.done[i] {
			continue
		}
		nd := &e.nodes[i]
		if nd.idleStamp != e.stamp {
			return 0, nil
		}
		k = min(k, nd.idleFor)
	}
	if k <= 0 {
		return 0, nil
	}
	i := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("congest: node %d panicked in Skip: %v [%s]", i, r, obs.StackSummary(2, 6))
		}
	}()
	for ; i < len(s.progs); i++ {
		if !s.done[i] {
			s.progs[i].(Skipper).Skip(&e.nodes[i], k)
		}
	}
	return k, nil
}

// run is the round loop: sweep advances the live nodes of an id range by
// one round and reports how many finished. It returns the abort cause, or
// nil once every node has finished. With Config.Shards > 1 each round's
// sweep fans out to the shard workers (shard.go), whose staged side effects
// are merged at the barrier so the run is byte-identical to the sequential
// sweep.
//
// skip, nil unless every program is a Skipper, is consulted after each
// round that queued no message. The rounds it skips are counted and traced
// as the quiet rounds they stand for, and are capped so that the MaxRounds
// abort fires at the same round as it would without skipping.
func (e *engine) run(sweep func(lo, hi int) int, skip func(limit int) (int, error)) error {
	n := len(e.nodes)
	sweepRound := func() int { return sweep(0, n) }
	if e.shards > 1 {
		var stop func()
		sweepRound, stop = e.startShards(sweep)
		defer stop()
	}
	live := n
	for round := 0; ; round++ {
		if round > e.maxRounds {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, e.maxRounds)
		}
		if err := e.ctxErr(); err != nil {
			return err
		}
		e.round, e.stamp = round, round+1
		live -= sweepRound()
		if e.firstErr != nil {
			return e.firstErr
		}
		if live == 0 {
			return nil
		}
		quiet := len(e.senders) == 0
		e.stats.Rounds++
		if err := e.deliver(); err != nil {
			return err
		}
		e.traceRound(round, live)
		if !quiet || skip == nil {
			continue
		}
		k, err := skip(e.maxRounds - round)
		if err != nil {
			return err
		}
		e.stats.Rounds += k
		if e.wantRounds {
			for j := 1; j <= k; j++ {
				e.traceRound(round+j, live)
			}
		}
		round += k
	}
}

// deliver moves every queued message into the flat inbox and accounts the
// round's traffic. It is a counting sort by destination: count tallies
// each destination's messages, prefix turns the tallies into ranges, and
// scatter copies the messages into them. Senders are scattered in id
// order, so every node's range is sorted by sender; within one sender the
// queue order is irrelevant because a sender queues at most one message per
// destination per round. A round with messages costs O(n) for the clear
// and the prefix sum over off plus O(1) per message; a quiet round after a
// quiet round costs O(1).
//
// A round whose every outbox entry is an all-node broadcast is not sorted:
// gatherBroadcasts keeps one entry per broadcaster, which every node's Recv
// shares, so the round costs O(broadcasters) plus at most the clear of off,
// however many messages it stands for.
// Rounds that mix such broadcasts with other sends take the counting sort.
func (e *engine) deliver() error {
	if e.offDirty {
		clear(e.off)
		e.offDirty = false
	}
	e.bcastRound = false
	e.lastBits, e.lastMsgs, e.lastMaxLink = 0, 0, 0
	if len(e.senders) == 0 {
		return nil
	}
	allBcasts := e.count()
	// A toAll entry is its sender's only one (the fast path queues it into
	// an empty outbox, and the bcastAll guard fails every later send), so
	// one per sender means the round holds nothing else.
	if allBcasts == len(e.senders) {
		e.gatherBroadcasts()
	} else {
		if e.lastMsgs > math.MaxInt32 {
			return fmt.Errorf("congest: round %d queued %d messages, more than one round's inbox can hold", e.round, e.lastMsgs)
		}
		e.prefix(int32(allBcasts))
		e.scatter()
		e.offDirty = true
	}
	e.stats.TotalBits += e.lastBits
	e.stats.Messages += e.lastMsgs
	e.stats.MaxRoundBits = max(e.stats.MaxRoundBits, e.lastBits)
	e.stats.MaxRoundMessages = max(e.stats.MaxRoundMessages, e.lastMsgs)
	return nil
}

// count tallies destination v's messages into off[v+2] and accounts the
// round's messages, bits, largest message and cut traffic into the last*
// fields, one outbox entry at a time. It returns the number of queued
// all-node broadcasts: each adds one message to every node but its sender,
// which prefix adds in bulk (count withdraws the sender's own one here).
func (e *engine) count() (allBcasts int) {
	off := e.off
	n := len(e.nodes)
	var msgs, bits, maxLink int64
	for _, sid := range e.senders {
		for _, o := range e.nodes[sid].out {
			var k int
			switch o.to {
			case toNbrs:
				adj := e.g.Adj(sid)
				for _, u := range adj {
					off[u+2]++
				}
				k = len(adj)
			case toAll:
				allBcasts++
				off[sid+2]--
				k = n - 1
			default:
				off[o.to+2]++
				k = 1
			}
			b := int64(o.msg.Bits())
			msgs += int64(k)
			bits += b * int64(k)
			maxLink = max(maxLink, b)
			if e.cutA != nil {
				c := e.crossings(sid, o.to)
				e.stats.CutBits += b * c
				e.stats.CutMessages += c
			}
		}
	}
	e.lastMsgs, e.lastBits, e.lastMaxLink = msgs, bits, maxLink
	return allBcasts
}

// crossings counts the destinations of sender sid's outbox entry to that
// lie on the other side of the configured cut.
func (e *engine) crossings(sid, to int) int64 {
	side := e.cutA.Contains(sid)
	var c int64
	switch to {
	case toNbrs:
		for _, u := range e.g.Adj(sid) {
			if e.cutA.Contains(u) != side {
				c++
			}
		}
	case toAll:
		// Every node but the sender: the whole other side of the cut.
		if side {
			return int64(len(e.nodes)) - e.cutSize
		}
		return e.cutSize
	default:
		if e.cutA.Contains(to) != side {
			c = 1
		}
	}
	return c
}

// prefix turns count's tallies into ranges: afterwards off[v+1] is the
// start of node v's range (scatter's write cursor for v), and every count
// is raised by the allBcasts all-node broadcasts.
func (e *engine) prefix(allBcasts int32) {
	off := e.off
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1] + allBcasts
	}
}

// scatter copies every queued message to its destination's cursor, in
// sender id order, and empties the outboxes. Afterwards off[v+1] is the end
// of node v's range, which is where node v+1's range starts.
func (e *engine) scatter() {
	e.inbox = slices.Grow(e.inbox[:0], int(e.lastMsgs))[:e.lastMsgs]
	inbox, off := e.inbox, e.off
	n := len(e.nodes)
	for _, sid := range e.senders {
		nd := &e.nodes[sid]
		for _, o := range nd.out {
			in := Incoming{From: sid, Msg: o.msg}
			switch o.to {
			case toNbrs:
				for _, u := range e.g.Adj(sid) {
					inbox[off[u+1]] = in
					off[u+1]++
				}
			case toAll:
				for u := 0; u < sid; u++ {
					inbox[off[u+1]] = in
					off[u+1]++
				}
				for u := sid + 1; u < n; u++ {
					inbox[off[u+1]] = in
					off[u+1]++
				}
			default:
				inbox[off[o.to+1]] = in
				off[o.to+1]++
			}
		}
		nd.out = nd.out[:0]
	}
	e.senders = e.senders[:0]
}

// gatherBroadcasts delivers a round whose every outbox entry is an
// all-node broadcast: inbox becomes the broadcasters' messages, one entry
// each in sender id order, and the outboxes are emptied. count withdrew
// each broadcaster's own slot from off; gatherBroadcasts gives the slots
// back, so off stays clear for the next round.
func (e *engine) gatherBroadcasts() {
	e.inbox = e.inbox[:0]
	for _, sid := range e.senders {
		nd := &e.nodes[sid]
		e.inbox = append(e.inbox, Incoming{From: sid, Msg: nd.out[0].msg})
		nd.out = nd.out[:0]
		e.off[sid+2]++
	}
	e.senders = e.senders[:0]
	e.bcastRound = true
}

// broadcastView is node nd's Recv after a broadcast-only round. A node that
// did not broadcast receives every broadcast, so it gets the shared list
// itself. A broadcaster gets the list minus its own entry, copied into the
// scratch buffer of the sweep that steps it (the engine's on the
// sequential sweep, its shard's on a sharded one), which the next
// broadcaster's call on that sweep overwrites; Recv's contract makes the
// slice valid only during the current Step.
func (e *engine) broadcastView(nd *Node) []Incoming {
	i, self := slices.BinarySearchFunc(e.inbox, nd.id, func(in Incoming, id int) int { return cmp.Compare(in.From, id) })
	if !self {
		return e.inbox
	}
	buf := &e.view
	if nd.sh != nil {
		buf = &nd.sh.view
	}
	*buf = append(append((*buf)[:0], e.inbox[:i]...), e.inbox[i+1:]...)
	return *buf
}
