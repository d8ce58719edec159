package congest

import (
	"context"
	"fmt"
	"sync"

	"powergraph/internal/bitset"
	"powergraph/internal/obs"
)

// The engine: a single scheduler goroutine advances every node once per
// round (in id order) and then moves all queued messages from the flat
// per-node outbox slices into the inbox slices, reusing the buffers across
// rounds. There is no per-node goroutine, no channel, and no per-round map
// allocation in the loop.
//
// Determinism follows from three invariants: nodes only interact at round
// boundaries, senders are processed in id order (so inboxes are sorted by
// sender), and a round is counted (and its messages delivered) exactly when
// at least one node is still running after the sweep.

// engine is the per-run simulation state.
type engine struct {
	g         graphLike
	model     Model
	bandwidth int
	maxRounds int
	cutA      *bitset.Set
	// ctx cancels the run at the next round barrier; nil means no
	// cancellation (checked via ctxErr, one poll per round).
	ctx context.Context

	nodes []*Node
	stats Stats

	mu       sync.Mutex
	firstErr error

	// Scheduling: stamp is the current round's duplicate-send guard value
	// (round index + 1, never zero); senders lists the nodes that queued
	// messages this round (ascending, because the sweep runs in id order)
	// and receivers the nodes whose inboxes are non-empty, so delivery cost
	// scales with actual traffic instead of n.
	stamp     int
	senders   []int
	receivers []int

	// Sharded scheduling (see shard.go): shards is the worker count for
	// the per-round node sweep (≤ 1 means sequential), shardStates the
	// per-shard staging buffers, and nodeSlab the backing array all Node
	// values live in (one allocation instead of n).
	shards      int
	shardStates []shardState
	nodeSlab    []Node

	// Tracing (see internal/obs). tracer is nil when disabled; wantRounds
	// caches tracer.WantRounds() so delivery only pays the per-round
	// accounting when a tracer actually wants round events. seed is kept
	// for the run-start record; seedBase derives the per-node random
	// streams lazily (see Node.Rand).
	tracer     obs.Tracer
	wantRounds bool
	seed       int64
	seedBase   int64

	// Per-round trace accounting, filled by deliver: bits and messages
	// delivered in the last completed round, and (only when wantRounds)
	// the largest single message — which, at one message per directed link
	// per round, is exactly the max single-link bit volume.
	lastBits    int64
	lastMsgs    int64
	lastMaxLink int64

	// Span reference counts: per-node begin/end marks collapse into one
	// network-wide span event on the 0→1 and →0 transitions. spanMu
	// serializes the reference counts and the tracer span calls.
	spanMu sync.Mutex
	spans  map[spanKey]int
}

// spanKey identifies one open span instance.
type spanKey struct {
	name  string
	index int
}

// spanBegin records one node's span-begin mark, emitting the tracer event
// on the first mark for this (name, index). The emitted mark carries the
// cumulative message count as of the round boundary: marks fire while the
// round's steps run (or, sharded, at the barrier replay) — in both cases
// before that round's delivery updates the counter — so the snapshot is the
// traffic delivered before the mark's round, at any shard count.
func (e *engine) spanBegin(name string, index, round int) {
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	if e.spans == nil {
		e.spans = make(map[spanKey]int)
	}
	k := spanKey{name, index}
	refs := e.spans[k]
	e.spans[k] = refs + 1
	if refs == 0 {
		e.tracer.SpanBegin(obs.Span{Name: name, Index: index, Round: round, Msgs: e.stats.Messages})
	}
}

// spanEnd records one node's span-end mark, emitting the tracer event when
// the last mark is withdrawn. Ends without a matching open span are ignored
// so termination paths can close spans unconditionally.
func (e *engine) spanEnd(name string, index, round int) {
	e.spanMu.Lock()
	defer e.spanMu.Unlock()
	k := spanKey{name, index}
	refs := e.spans[k]
	if refs == 0 {
		return
	}
	if refs == 1 {
		delete(e.spans, k)
		e.tracer.SpanEnd(obs.Span{Name: name, Index: index, Round: round, Msgs: e.stats.Messages})
		return
	}
	e.spans[k] = refs - 1
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
// done. Both round loops (sequential and sharded) call it at the same
// position — right after the MaxRounds check at the top of each round
// iteration — so they abort at the same granularity: a clean round boundary.
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

func (e *engine) setErr(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.firstErr == nil {
		e.firstErr = err
	}
}

func (e *engine) getErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// nodeErr records a node failure. On a sharded sweep it is staged in
// the node's shard (each shard keeps its first error, i.e. its lowest-id
// failing node, because the in-shard sweep is sequential in id order); the
// barrier then adopts the lowest shard's error, reproducing exactly the
// "first error in id order" the sequential sweep records. Everywhere else
// it goes straight to the engine.
func (e *engine) nodeErr(nd *Node, err error) {
	if sh := nd.sh; sh != nil {
		if sh.err == nil {
			sh.err = err
		}
		return
	}
	e.setErr(err)
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
	}
	if cfg.Tracer != nil {
		eng.wantRounds = cfg.Tracer.WantRounds()
	}
	eng.stats.Bandwidth = eng.bandwidth
	// One slab allocation for all node state; per-node duplicate-send guards
	// and random streams are created lazily so a million-node run pays only
	// for what its algorithm uses.
	eng.nodeSlab = make([]Node, n)
	eng.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := &eng.nodeSlab[i]
		nd.id = i
		nd.eng = eng
		eng.nodes[i] = nd
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
	outputs := make([]T, n)
	progs := make([]StepProgram[T], n)
	for i, nd := range eng.nodes {
		progs[i] = newProgram(nd)
	}
	eng.traceRunStart()
	runErr := eng.run(func(nd *Node) bool { return stepNode(nd, progs[nd.id], outputs) })
	if runErr == nil {
		runErr = eng.getErr()
	}
	eng.traceRunEnd(runErr)
	if runErr != nil {
		return nil, runErr
	}
	return &Result[T]{Outputs: outputs, Stats: eng.stats}, nil
}

// stepNode advances one node by one round and reports whether it finished.
// A failing step (error, MustSend violation, or panic) records the node's
// error and finishes the node; the round loop aborts after the sweep.
func stepNode[T any](nd *Node, prog StepProgram[T], outputs []T) (done bool) {
	nd.round = nd.eng.stamp - 1
	defer func() {
		if r := recover(); r != nil {
			if np, ok := r.(nodePanic); ok {
				nd.eng.nodeErr(nd, np.err)
			} else {
				nd.eng.nodeErr(nd, fmt.Errorf("congest: node %d panicked: %v [%s]", nd.id, r, obs.StackSummary(2, 6)))
			}
			done = true
		}
	}()
	done, err := prog.Step(nd)
	if err != nil {
		nd.eng.nodeErr(nd, fmt.Errorf("congest: node %d: %w", nd.id, err))
		return true
	}
	if done {
		outputs[nd.id] = prog.Output()
	}
	return done
}

// errMaxRounds builds the round-limit abort error; the sequential and the
// sharded loop report it identically.
func errMaxRounds(limit int) error {
	return fmt.Errorf("%w (%d)", ErrMaxRounds, limit)
}

// run is the round loop: step advances one node by one round and reports
// whether it finished. It returns the abort cause, or nil once every node
// has finished. With Config.Shards > 1 the sweep is delegated to the
// sharded driver (shard.go), which stages per-shard side effects and merges
// them at the barrier so its output is byte-identical to this sequential
// loop.
func (e *engine) run(step func(nd *Node) bool) error {
	if e.shards > 1 {
		return e.runSharded(step)
	}
	alive := make([]bool, len(e.nodes))
	for i := range alive {
		alive[i] = true
	}
	live := len(e.nodes)
	for round := 0; ; round++ {
		if round > e.maxRounds {
			return errMaxRounds(e.maxRounds)
		}
		if err := e.ctxErr(); err != nil {
			return err
		}
		// stamp doubles as the duplicate-send guard for this round; it is
		// round+1 so the zero value of a node's sentRound map never matches.
		e.stamp = round + 1
		for i, nd := range e.nodes {
			if !alive[i] {
				continue
			}
			if step(nd) {
				alive[i] = false
				live--
			}
		}
		if err := e.getErr(); err != nil {
			return err
		}
		if live == 0 {
			return nil
		}
		e.stats.Rounds++
		e.deliver()
		e.traceRound(round, live)
	}
}

// deliver moves every sending node's flat outbox into the destination
// inboxes, accounting bits. Senders were registered in id order, so every
// inbox stays sorted by sender; within one sender the queue order is
// irrelevant because a sender queues at most one message per destination
// per round. Only last round's receivers need their inboxes cleared, so a
// quiet round costs nothing per idle node.
func (e *engine) deliver() {
	for _, id := range e.receivers {
		e.nodes[id].inbox = e.nodes[id].inbox[:0]
	}
	e.receivers = e.receivers[:0]
	var roundBits, roundMsgs, maxLink int64
	for _, sid := range e.senders {
		nd := e.nodes[sid]
		for k, to := range nd.outDst {
			m := nd.outMsgs[k]
			b := int64(m.Bits())
			e.stats.TotalBits += b
			roundBits += b
			roundMsgs++
			// One message per directed link per round, so the largest
			// message is the max single-link bit volume this round; only
			// paid for when a tracer asked for round events.
			if e.wantRounds && b > maxLink {
				maxLink = b
			}
			if e.cutA != nil && e.cutA.Contains(nd.id) != e.cutA.Contains(to) {
				e.stats.CutBits += b
				e.stats.CutMessages++
			}
			dst := e.nodes[to]
			if len(dst.inbox) == 0 {
				e.receivers = append(e.receivers, to)
			}
			dst.inbox = append(dst.inbox, Incoming{From: nd.id, Msg: m})
		}
		nd.outDst = nd.outDst[:0]
		nd.outMsgs = nd.outMsgs[:0]
	}
	e.senders = e.senders[:0]
	e.lastBits, e.lastMsgs, e.lastMaxLink = roundBits, roundMsgs, maxLink
	e.stats.Messages += roundMsgs
	if roundBits > e.stats.MaxRoundBits {
		e.stats.MaxRoundBits = roundBits
	}
	if roundMsgs > e.stats.MaxRoundMessages {
		e.stats.MaxRoundMessages = roundMsgs
	}
}
