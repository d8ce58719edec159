// Package congest simulates the synchronous CONGEST and CONGESTED CLIQUE
// models of distributed computing ([Pel00], [LPPP03]; footnotes 1–2 of the
// paper).
//
// A network is built from a communication graph G. Every node runs its
// algorithm against a Node handle; rounds are barrier synchronized. In each
// round a node may send at most one message per communication link — to each
// G-neighbor in CONGEST, to every other node in CONGESTED CLIQUE — and every
// message is accounted in bits and checked against the bandwidth budget
// B = BandwidthFactor·⌈log₂ n⌉, which is the "O(log n)-bit messages"
// constraint the paper's round bounds rely on. Messages sent in round r are
// delivered at the start of round r+1.
//
// The simulator reports rounds, message count, total bits, and (optionally)
// the bits crossing a vertex cut — the quantity bounded by the Alice–Bob
// framework of Section 5.1.
//
// # Execution
//
// Node programs are StepPrograms, and RunProgram is the one driver: each
// round one sweep calls every live node's Step once, in id order, as a
// plain method call under a single deferred recover, then delivers the
// round's messages. A program may also promise, through Node.Idle, to stay
// silent for the next k rounds while nothing reaches it; when no node sent
// in a round and every live node made such a promise, a program that
// implements Skipper is advanced over the shortest promise in one Skip
// call, and the skipped rounds are counted and traced as the quiet rounds
// they stand for, with the span marks Skip made for them at their offsets. A Message is a pointer-free value; each node queues
// its sends in a reused outbox, where a whole broadcast is one entry, and
// delivery counting-sorts them by destination into one flat inbox, of
// which every node's Recv is a range. A round whose sends are all
// all-node broadcasts (CONGESTED CLIQUE) is not expanded: its inbox is one
// entry per broadcaster, which every node's Recv shares (a broadcaster's
// without its own entry), so delivering it costs O(n + broadcasters)
// rather than O(n²), while Stats still count every message. No
// goroutine, channel, or per-round map sits in the round loop, and
// steady-state rounds allocate nothing, which is what makes million-node
// runs practical. Config.Shards > 1 splits the per-round node sweep
// across a persistent worker pool with byte-identical results (see
// shard.go); ARCHITECTURE.md has measurements.
// For a fixed Config (including Seed) a run's outputs, round counts, and
// statistics are fully determined.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// Model selects the communication rule.
type Model int

const (
	// CONGEST allows one B-bit message per incident G-edge per round.
	CONGEST Model = iota
	// CongestedClique allows one B-bit message to every other node per round.
	CongestedClique
)

func (m Model) String() string {
	switch m {
	case CONGEST:
		return "CONGEST"
	case CongestedClique:
		return "CONGESTED-CLIQUE"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Incoming pairs a delivered message with its sender. It holds no
// pointer, so a round's whole inbox is one flat, pointer-free buffer.
type Incoming struct {
	From int
	Msg  Message
}

// Config describes a simulation.
type Config struct {
	Graph *graph.Graph
	Model Model
	// Ctx, when non-nil, cancels an in-flight run: the engine checks it at
	// every round barrier and aborts with an error wrapping ErrCanceled (and
	// the context's cause) as soon as it is done. nil means never canceled.
	// This is what lets a server impose per-request deadlines on simulations
	// that would otherwise run a 10⁶-node job to completion.
	Ctx context.Context
	// BandwidthFactor scales the per-message budget B =
	// BandwidthFactor·⌈log₂ n⌉ bits. Zero means the default of 4, enough
	// for a constant number of IDs/weights per message as the paper's
	// algorithms assume.
	BandwidthFactor int
	// MaxRounds aborts runaway algorithms. Zero means the default 1<<22.
	MaxRounds int
	// Shards splits the per-round node sweep into that many contiguous
	// node-id ranges advanced by a persistent worker pool, with per-shard
	// staging buffers merged at the round barrier so results, Stats, and
	// span summaries are byte-identical to the sequential sweep at any shard
	// count (see shard.go). Values ≤ 1 mean the sequential sweep. Negative
	// values are rejected.
	Shards int
	// Seed derives every node's private random stream; runs are
	// deterministic given a seed.
	Seed int64
	// CutA, when non-nil, is a vertex set A: the simulator separately
	// counts the bits of messages crossing between A and V∖A (the cut
	// traffic of Section 5.1's two-party reductions).
	CutA *bitset.Set
	// Tracer, when non-nil, receives run/round/span events (see
	// internal/obs). nil disables tracing; the hot path then pays one
	// branch per event site and allocates nothing. Per-round events are
	// only emitted when Tracer.WantRounds() reports true at run start.
	Tracer obs.Tracer
}

// Stats aggregates the observable cost of a run.
type Stats struct {
	Rounds      int   // number of completed communication rounds
	Messages    int64 // total messages delivered
	TotalBits   int64 // total bits delivered
	CutBits     int64 // bits crossing the configured cut (0 if no cut set)
	CutMessages int64 // messages crossing the configured cut
	Bandwidth   int   // the enforced per-message budget B in bits
	// MaxRoundBits is the largest number of bits delivered in any single
	// round — the network-wide congestion peak. Algorithms that pipeline
	// (Lemma 2) keep it near m·B; bursty ones spike it.
	MaxRoundBits int64
	// MaxRoundMessages is the largest number of messages in any round.
	MaxRoundMessages int64
}

// Result carries per-node outputs and the run statistics.
type Result[T any] struct {
	Outputs []T
	Stats   Stats
}

// StepProgram is a node program: the engine calls Step once per round, so
// each node's per-round logic runs as a plain function call with no
// goroutine or channel in the loop.
//
// Step sees the messages delivered this round via nd.Recv and queues sends
// for the next round; returning from Step is the round boundary. Returning
// done = true finishes the node (messages it queued in that final step are
// still delivered).
type StepProgram[T any] interface {
	// Step runs this node's logic for the current round.
	Step(nd *Node) (done bool, err error)
	// Output returns the node's final output; the engine calls it once,
	// after Step reports done.
	Output() T
}

// Skipper is the optional interface of a StepProgram whose idle stretches
// the engine may jump over. After a round in which no node queued a
// message and every live node called Node.Idle, the engine takes the
// shortest promise K and calls Skip(nd, K) on every live program instead
// of stepping rounds t+1…t+K. Skip must leave the program, and the span
// marks, exactly as K Steps with empty inboxes would have left them, and
// must not send, draw randomness or allocate. It runs on the coordinator,
// in id order, at the barrier of round t (nd.Round() reports t), and makes
// the marks those Steps would make through Node.SpanBeginAt/SpanEndAt.
//
// The engine skips only when every program of the run is a Skipper;
// otherwise every round is stepped and Idle calls are ignored.
type Skipper interface {
	Skip(nd *Node, k int)
}

// ErrMaxRounds reports that the round limit was hit before termination.
var ErrMaxRounds = errors.New("congest: exceeded maximum round count")

// ErrCanceled reports that Config.Ctx was done before the run terminated.
// The returned error also wraps the context's cause, so errors.Is matches
// both ErrCanceled and e.g. context.DeadlineExceeded.
var ErrCanceled = errors.New("congest: run canceled")

// IDBits returns the number of bits needed to address n distinct ids —
// the unit "O(log n)" in all of the paper's message-size accounting.
func IDBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// nodePanic is the sentinel carried by internal panics that abort a node's
// step (MustSend violations); it never escapes the package.
type nodePanic struct{ err error }

// Node is the handle a node program uses to interact with the simulation.
// A Node must only be used from inside its program's Step.
type Node struct {
	id  int
	eng *engine
	// rng is created on the first Rand call, in O(1) time and a few dozen
	// bytes (see rand.go): it yields rand.NewSource's stream without
	// seeding that source's 4.9 KB register, which only a node drawing
	// more than 273 values ever builds. Deterministic algorithms never
	// create one.
	rng *rand.Rand

	// sh points at this node's shard staging buffers during a sharded round
	// sweep (see shard.go); nil on the sequential sweep.
	sh *shardState

	// out is the send buffer, truncated and reused across rounds: one entry
	// per explicit send, and one entry for a whole broadcast (to toNbrs or
	// toAll), which delivery expands. sentRound is a round-stamped map for
	// duplicate-send detection; a broadcast instead records itself in the
	// round-stamped bcastAll/bcastNbrs guards, so later explicit sends
	// still detect duplicates.
	out       []outMsg
	sentRound map[int]int
	bcastAll  int
	bcastNbrs int

	// idleStamp is the stamp of the round whose Step last called Idle, and
	// idleFor the shortest promise made in it.
	idleStamp int
	idleFor   int
}

// outMsg is one queued send: a destination id, or toNbrs/toAll for a
// broadcast queued once.
type outMsg struct {
	to  int
	msg Message
}

// The broadcast destinations of an outMsg.
const (
	toNbrs = -1 // every G-neighbor of the sender
	toAll  = -2 // every node but the sender (CONGESTED CLIQUE)
)

// ID returns this node's identifier (0…n-1). The paper's algorithms use ids
// for symmetry breaking; uniqueness is all that is required.
func (nd *Node) ID() int { return nd.id }

// N returns the number of nodes in the network (global knowledge, as is
// standard in CONGEST).
func (nd *Node) N() int { return nd.eng.g.N() }

// Round returns the current round number, starting from 0.
func (nd *Node) Round() int { return nd.eng.round }

// Bandwidth returns the per-message budget B in bits.
func (nd *Node) Bandwidth() int { return nd.eng.bandwidth }

// Degree returns this node's degree in the input graph G.
func (nd *Node) Degree() int { return nd.eng.g.Degree(nd.id) }

// Neighbors returns this node's G-neighbors as a shared, sorted, read-only
// slice (the knowledge a CONGEST node starts with).
func (nd *Node) Neighbors() []int { return nd.eng.g.Adj(nd.id) }

// Weight returns this node's input weight (1 on unweighted graphs).
func (nd *Node) Weight() int64 { return nd.eng.g.Weight(nd.id) }

// Rand returns this node's private deterministic random stream (created on
// first use; the stream depends only on Config.Seed and the node id, never
// on the shard count). It is exactly the stream of
// rand.New(rand.NewSource(s)) for the node's seed s, created in O(1).
func (nd *Node) Rand() *rand.Rand {
	if nd.rng == nil {
		nd.rng = newNodeRand(nd.eng.seedBase + int64(nd.id) + 1)
	}
	return nd.rng
}

// Send queues a B-bit-bounded message to the given destination for delivery
// next round. It returns an error if the destination is not reachable under
// the model, if a message was already queued to it this round, or if the
// message exceeds the bandwidth budget.
func (nd *Node) Send(to int, m Message) error {
	if err := nd.sendCheck(to, m); err != nil {
		return err
	}
	if nd.sentRound == nil {
		nd.sentRound = make(map[int]int, 8)
	}
	nd.sentRound[to] = nd.eng.stamp
	nd.queue(to, m)
	return nil
}

// queue appends one entry to the outbox, registering this node as a sender
// for the current round on its first entry: in the engine-wide list on the
// sequential sweep, in the shard-local staging list on a sharded sweep
// (concatenated in shard order at the barrier, which is ascending id order
// — exactly the sequential sweep's order).
func (nd *Node) queue(to int, m Message) {
	if len(nd.out) == 0 {
		if sh := nd.sh; sh != nil {
			sh.senders = append(sh.senders, nd.id)
		} else {
			nd.eng.senders = append(nd.eng.senders, nd.id)
		}
	}
	nd.out = append(nd.out, outMsg{to: to, msg: m})
}

func (nd *Node) sendCheck(to int, m Message) error {
	if to < 0 || to >= nd.eng.g.N() || to == nd.id {
		return fmt.Errorf("congest: node %d: invalid destination %d", nd.id, to)
	}
	if nd.eng.model == CONGEST && !nd.eng.g.HasEdge(nd.id, to) {
		return fmt.Errorf("congest: node %d: %d is not a neighbor", nd.id, to)
	}
	if nd.sentRound[to] == nd.eng.stamp ||
		nd.bcastAll == nd.eng.stamp ||
		(nd.bcastNbrs == nd.eng.stamp && nd.eng.g.HasEdge(nd.id, to)) {
		return fmt.Errorf("congest: node %d: second message to %d in round %d", nd.id, to, nd.eng.round)
	}
	if b := m.Bits(); b > nd.eng.bandwidth {
		return fmt.Errorf("congest: node %d: message of %d bits exceeds budget %d", nd.id, b, nd.eng.bandwidth)
	}
	return nil
}

// MustSend is Send for messages that are correct by construction; a failure
// aborts the whole simulation with the underlying error (it is converted to
// an error return of RunProgram, never a caller-visible panic).
func (nd *Node) MustSend(to int, m Message) {
	if err := nd.Send(to, m); err != nil {
		panic(nodePanic{err})
	}
}

// Broadcast sends m to every neighbor (CONGEST) or every other node
// (CONGESTED CLIQUE).
func (nd *Node) Broadcast(m Message) {
	if nd.eng.model != CongestedClique {
		nd.BroadcastNeighbors(m)
		return
	}
	if len(nd.out) == 0 {
		nd.fastBroadcast(m, toAll, nd.eng.g.N()-1)
		return
	}
	for to := 0; to < nd.eng.g.N(); to++ {
		if to != nd.id {
			nd.MustSend(to, m)
		}
	}
}

// BroadcastNeighbors sends m to every G-neighbor regardless of model: the
// building block of protocols that keep their G-structure semantics even
// when the network runs in CONGESTED CLIQUE mode (all of
// congest/primitives does).
func (nd *Node) BroadcastNeighbors(m Message) {
	if len(nd.out) == 0 {
		nd.fastBroadcast(m, toNbrs, nd.eng.g.Degree(nd.id))
		return
	}
	for _, to := range nd.Neighbors() {
		nd.MustSend(to, m)
	}
}

// fastBroadcast is the broadcast fast path, valid only when nothing was
// queued yet this round (the caller checked): the count destinations
// (toNbrs or toAll) are distinct and reachable by construction, so the
// per-destination checks reduce to one bandwidth test, the whole broadcast
// is one outbox entry that delivery expands, and the round-stamped guard
// keeps later explicit sends honest about duplicates.
func (nd *Node) fastBroadcast(m Message, to, count int) {
	if count == 0 {
		return
	}
	if b := m.Bits(); b > nd.eng.bandwidth {
		// Same failure MustSend's check reports on the first destination.
		panic(nodePanic{fmt.Errorf("congest: node %d: message of %d bits exceeds budget %d", nd.id, b, nd.eng.bandwidth)})
	}
	nd.queue(to, m)
	if to == toAll {
		nd.bcastAll = nd.eng.stamp
	} else {
		nd.bcastNbrs = nd.eng.stamp
	}
}

// Idle promises that for the next k rounds, as long as this node's inbox
// stays empty, its Step sends nothing, draws no randomness, and neither
// finishes nor fails; the span marks those Steps would make, the program's
// Skip makes through SpanBeginAt/SpanEndAt. It may be called during Step;
// calling it again in the same Step keeps the shorter promise, and k < 1
// promises nothing. A promise lasts for the round it was made in only: a node that
// stays idle calls Idle again in every Step. See Skipper for how the engine
// uses the promises.
func (nd *Node) Idle(k int) {
	if k < 1 {
		return
	}
	if stamp := nd.eng.stamp; nd.idleStamp != stamp || k < nd.idleFor {
		nd.idleStamp, nd.idleFor = stamp, k
	}
}

// SpanBegin marks the start of a named phase span at the current round.
// Spans are network-wide: when every node of a lockstep program calls
// SpanBegin with the same (name, index) at the same round, the tracer sees
// a single begin event (the engine reference-counts per-node marks).
// Repeated spans of the same name (Phase-I iterations, MDS phases) are
// distinguished by index. A nil tracer makes this a single-branch no-op.
func (nd *Node) SpanBegin(name string, index int) {
	if nd.eng.tracer == nil {
		return
	}
	if sh := nd.sh; sh != nil {
		// Sharded sweep: stage the mark shard-locally; the barrier replays
		// marks in shard order (= id order), reproducing the sequential
		// sweep's reference-count transitions and event order.
		sh.marks = append(sh.marks, spanMark{name: name, index: index})
		return
	}
	nd.eng.spanBegin(name, index)
}

// SpanEnd marks the close of a phase span. Spans are half-open round
// intervals [begin, end): ending at the begin round means the span consumed
// no communication rounds. Unmatched ends (no open span with that name and
// index) are silently ignored, so termination paths may call SpanEnd
// unconditionally.
func (nd *Node) SpanEnd(name string, index int) {
	if nd.eng.tracer == nil {
		return
	}
	if sh := nd.sh; sh != nil {
		sh.marks = append(sh.marks, spanMark{name: name, index: index, end: true})
		return
	}
	nd.eng.spanEnd(name, index)
}

// SpanBeginAt is SpanBegin for a Skipper's Skip(nd, k): it makes the mark
// that the Step of skipped round t+j would make, t being the round the skip
// follows. It is valid only inside Skip, with 1 ≤ j ≤ k; any other use fails
// the node. The engine replays the marks of the skipped rounds in round
// order, each round's in id order and then call order, which is the order
// the Steps would have made them in. A nil tracer makes it a no-op.
func (nd *Node) SpanBeginAt(j int, name string, index int) {
	nd.eng.markAt(nd, j, spanMark{name: name, index: index})
}

// SpanEndAt is SpanEnd for a Skipper's Skip, as SpanBeginAt is SpanBegin.
func (nd *Node) SpanEndAt(j int, name string, index int) {
	nd.eng.markAt(nd, j, spanMark{name: name, index: index, end: true})
}

// Recv returns the messages delivered at the start of the current round
// (i.e. sent during the previous round), sorted by sender id. The slice is
// this node's range of the round's shared inbox or, after a round in which
// every send was an all-node broadcast, the round's broadcast list, which
// every node shares; a broadcaster gets a copy without its own entry, in a
// buffer that later Recv calls reuse, at O(broadcasters) per call. It must
// not be modified, and it is valid only during the current Step.
func (nd *Node) Recv() []Incoming {
	e := nd.eng
	if e.bcastRound {
		return e.broadcastView(nd)
	}
	return e.inbox[e.off[nd.id]:e.off[nd.id+1]]
}

// RecvFrom returns the message delivered this round from the given sender,
// if any.
func (nd *Node) RecvFrom(from int) (Message, bool) {
	for _, in := range nd.Recv() {
		if in.From == from {
			return in.Msg, true
		}
	}
	return Message{}, false
}
