// Package primitives provides the reusable distributed building blocks the
// paper's CONGEST algorithms are assembled from: leader election, BFS tree
// construction, convergecast aggregation, root broadcast, pipelined gather
// of arbitrary item streams at a root (the "leader learns F" step of
// Lemma 2), hop maxima (the Phase-I symmetry breaking of Theorem 1), the
// estimator floods of Theorem 28, and the shared Phase-I loops.
//
// Each Step* type is an explicit state machine for use inside
// congest.StepProgram implementations: its per-round logic runs as a plain
// method call, which is what lets the engine drive million-node networks
// without any per-node goroutine or channel.
//
// Every primitive is a collective operation: every node of the network
// starts it in the same round, with consistent arguments, and it consumes
// the same number of rounds at every node (round counts depend only on n
// and on values made common knowledge beforehand). This lockstep contract
// is what lets stages chain without any node waiting on another.
//
// All primitives communicate strictly over G-edges (Node.BroadcastNeighbors
// and explicit neighbor sends, never Node.Broadcast), except the clique
// collectives that exist for the CONGESTED CLIQUE model, so they keep their
// G-structure semantics even when the network runs in CONGESTED CLIQUE
// mode.
//
// The composition contract:
//
//   - Step is called exactly once per round-slice; it first consumes the
//     messages delivered this round that belong to it, then queues this
//     round's sends.
//   - Step returns true in the slice after its final receive, having queued
//     nothing, so the caller must start the next stage within the same
//     slice.
//
// TestGoldenStepPrimitives pins the composed CONGEST and clique chains —
// every node's output and the full simulator accounting — against a
// fixture, and the per-primitive tests check each stage's properties
// directly.
//
// The primitives a program runs over and over — the hop maxima and the
// estimator floods of Theorem 28 — are values that restart in place: the
// zero value is ready, Restart takes the constructor's arguments and begins
// a fresh run (each New* constructor is new plus Restart), and a restarted
// primitive keeps the buffers it grew. A program that embeds them by value
// therefore allocates nothing per flood in steady state beyond boxing the
// messages it sends; TestStepPrimitivesRestartMatchesFresh holds every
// restarted run to a freshly constructed one.
package primitives

import (
	"fmt"

	"powergraph/internal/congest"
)

// Tree is a node-local view of a rooted spanning tree.
type Tree struct {
	Root     int
	Parent   int // -1 at the root
	Depth    int // distance from the root
	Children []int
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// panicCollective aborts the run through the step-panic path (recovered by
// the engine and surfaced as an error from congest.RunProgram).
func panicCollective(msg string) {
	panic(msg)
}

// StepMinIDLeader floods the minimum id through the network: on a connected
// graph every node holds the same leader after exactly n slices (n ≥
// diameter+1 guarantees quiescence). Done on slice n; messages carry one
// id.
type StepMinIDLeader struct {
	n, w int
	best int64
	r    int
}

// NewStepMinIDLeader starts a leader election at this node.
func NewStepMinIDLeader(nd *congest.Node) *StepMinIDLeader {
	return &StepMinIDLeader{n: nd.N(), w: congest.IDBits(nd.N()), best: int64(nd.ID())}
}

// Step advances one round-slice.
func (s *StepMinIDLeader) Step(nd *congest.Node) bool {
	if s.r > 0 {
		for _, in := range nd.Recv() {
			if v := in.Msg.(congest.Int).V; v < s.best {
				s.best = v
			}
		}
	}
	if s.r == s.n {
		return true
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(s.best, s.w))
	s.r++
	return false
}

// Leader returns the elected minimum id; valid once Step reported done.
func (s *StepMinIDLeader) Leader() int { return int(s.best) }

// StepBFSTree builds a BFS spanning tree rooted at root and yields each
// node's local view: depths equal BFS distances in G, and every parent is a
// G-neighbor one level closer to the root (ties toward the smallest id).
// The graph must be connected. n flood slices plus the child notification
// round, done on slice n+1.
type StepBFSTree struct {
	n        int
	t        Tree
	joined   bool
	announce bool
	r        int
}

// NewStepBFSTree starts BFS tree construction rooted at root.
func NewStepBFSTree(nd *congest.Node, root int) *StepBFSTree {
	s := &StepBFSTree{n: nd.N(), t: Tree{Root: root, Parent: -1, Depth: -1}}
	if nd.ID() == root {
		s.t.Depth = 0
		s.joined = true
		s.announce = true
	}
	return s
}

// Step advances one round-slice.
func (s *StepBFSTree) Step(nd *congest.Node) bool {
	if s.r == s.n+1 {
		for _, in := range nd.Recv() {
			s.t.Children = append(s.t.Children, in.From)
		}
		return true
	}
	if s.r >= 1 && !s.joined {
		for _, in := range nd.Recv() {
			// First wave to arrive: sender is at depth r-1, we join at r.
			// Inbox is sorted by sender, so the first is the minimum id.
			s.t.Parent = in.From
			s.t.Depth = s.r
			s.joined = true
			s.announce = true
			break
		}
	}
	if s.r < s.n && s.announce {
		nd.BroadcastNeighbors(congest.Flag{})
		s.announce = false
	}
	if s.r == s.n && s.t.Parent != -1 {
		nd.MustSend(s.t.Parent, congest.Flag{})
	}
	s.r++
	return false
}

// Tree returns this node's local tree view; valid once Step reported done.
func (s *StepBFSTree) Tree() Tree { return s.t }

// StepConvergecastSum aggregates the sum of every node's value at the root
// of the tree; the root ends with the total, every other node with 0.
// Values must be non-negative and small enough that the global sum fits in
// the bandwidth budget. n slices, done on slice n.
type StepConvergecastSum struct {
	n       int
	t       *Tree
	acc     int64
	pending int
	sent    bool
	r       int
}

// NewStepConvergecastSum starts a sum aggregation of value toward the root
// of t.
func NewStepConvergecastSum(nd *congest.Node, t *Tree, value int64) *StepConvergecastSum {
	return &StepConvergecastSum{n: nd.N(), t: t, acc: value, pending: len(t.Children)}
}

// Step advances one round-slice.
func (s *StepConvergecastSum) Step(nd *congest.Node) bool {
	if s.r >= 1 {
		for _, in := range nd.Recv() {
			if m, ok := in.Msg.(congest.Int); ok && contains(s.t.Children, in.From) {
				s.acc += m.V
				s.pending--
			}
		}
	}
	if s.r == s.n {
		return true
	}
	if !s.sent && s.pending == 0 && s.t.Parent != -1 {
		nd.MustSend(s.t.Parent, congest.NewInt(s.acc))
		s.sent = true
	}
	s.r++
	return false
}

// Sum returns the total at the root and 0 elsewhere; valid once done.
func (s *StepConvergecastSum) Sum() int64 {
	if s.t.Parent == -1 {
		return s.acc
	}
	return 0
}

// StepBroadcastFromRoot floods a value from the tree's root to every node.
// n slices, done on slice n.
type StepBroadcastFromRoot struct {
	n     int
	t     *Tree
	have  bool
	relay bool
	v     int64
	r     int
}

// NewStepBroadcastFromRoot starts flooding value down from the root of t
// (non-root callers pass anything; their argument is ignored).
func NewStepBroadcastFromRoot(nd *congest.Node, t *Tree, value int64) *StepBroadcastFromRoot {
	s := &StepBroadcastFromRoot{n: nd.N(), t: t}
	if t.Parent == -1 {
		s.have, s.relay, s.v = true, true, value
	}
	return s
}

// Step advances one round-slice.
func (s *StepBroadcastFromRoot) Step(nd *congest.Node) bool {
	if s.r >= 1 && !s.have {
		if m, ok := nd.RecvFrom(s.t.Parent); ok {
			s.v = m.(congest.Int).V
			s.have = true
			s.relay = true
		}
	}
	if s.r == s.n {
		return true
	}
	if s.relay {
		for _, c := range s.t.Children {
			nd.MustSend(c, congest.NewInt(s.v))
		}
		s.relay = false
	}
	s.r++
	return false
}

// Value returns the flooded value; valid once done.
func (s *StepBroadcastFromRoot) Value() int64 { return s.v }

// StepGatherAtRoot pipelines every node's items up the tree to the root,
// which collects the concatenation of all items (in arbitrary but
// deterministic order); other nodes collect nothing. Each item must
// individually fit in the bandwidth budget. This is the pipelined upward
// gather of Lemma 2: with c items per node it takes O(c·n) rounds. An
// internal convergecast and broadcast make the total item count T common
// knowledge, then T+n pipeline slices stream every item to the root: 2n+T
// rounds in all.
type StepGatherAtRoot struct {
	t         *Tree
	items     []congest.Message
	sub       int
	conv      *StepConvergecastSum
	bcast     *StepBroadcastFromRoot
	queue     []congest.Message
	collected []congest.Message
	r, rounds int
}

// NewStepGatherAtRoot starts gathering this node's items at the root of t.
func NewStepGatherAtRoot(nd *congest.Node, t *Tree, items []congest.Message) *StepGatherAtRoot {
	for i, it := range items {
		if it.Bits() > nd.Bandwidth() {
			panicCollective(fmt.Sprintf("primitives: item %d of node %d has %d bits > budget %d",
				i, nd.ID(), it.Bits(), nd.Bandwidth()))
		}
	}
	return &StepGatherAtRoot{t: t, items: items, conv: NewStepConvergecastSum(nd, t, int64(len(items)))}
}

// Step advances one round-slice.
func (s *StepGatherAtRoot) Step(nd *congest.Node) bool {
	for {
		switch s.sub {
		case 0:
			if !s.conv.Step(nd) {
				return false
			}
			s.bcast = NewStepBroadcastFromRoot(nd, s.t, s.conv.Sum())
			s.sub = 1
		case 1:
			if !s.bcast.Step(nd) {
				return false
			}
			s.rounds = int(s.bcast.Value()) + nd.N()
			s.queue = make([]congest.Message, len(s.items))
			copy(s.queue, s.items)
			s.sub = 2
		default:
			if s.r >= 1 {
				for _, in := range nd.Recv() {
					if contains(s.t.Children, in.From) {
						if s.t.Parent == -1 {
							s.collected = append(s.collected, in.Msg)
						} else {
							s.queue = append(s.queue, in.Msg)
						}
					}
				}
			}
			if s.r == s.rounds {
				if s.t.Parent == -1 {
					s.collected = append(s.collected, s.items...)
				}
				return true
			}
			if len(s.queue) > 0 && s.t.Parent != -1 {
				nd.MustSend(s.t.Parent, s.queue[0])
				s.queue = s.queue[1:]
			}
			s.r++
			return false
		}
	}
}

// Collected returns every gathered item at the root (nil elsewhere); valid
// once done.
func (s *StepGatherAtRoot) Collected() []congest.Message {
	if s.t.Parent == -1 {
		return s.collected
	}
	return nil
}

// StepFloodItemsFromRoot pipelines the root's items down the tree; every
// node ends with the full item list in the root's order (non-root callers'
// items are ignored). Each item must fit the bandwidth budget. This is the
// "solution can be distributed to all nodes in O(n) rounds" step of
// Theorem 1's Phase II: the item count T becomes common knowledge, then
// T+n pipeline slices stream the root's items to every node, 2n+T rounds
// in all.
type StepFloodItemsFromRoot struct {
	t         *Tree
	sub       int
	conv      *StepConvergecastSum
	bcast     *StepBroadcastFromRoot
	queue     []congest.Message
	got       []congest.Message
	sendIdx   int
	r, rounds int
}

// NewStepFloodItemsFromRoot starts flooding the root's items down the tree;
// non-root callers pass nil items.
func NewStepFloodItemsFromRoot(nd *congest.Node, t *Tree, items []congest.Message) *StepFloodItemsFromRoot {
	s := &StepFloodItemsFromRoot{t: t}
	var total int64
	if t.Parent == -1 {
		total = int64(len(items))
		s.queue = append(s.queue, items...)
		s.got = append(s.got, items...)
	}
	s.conv = NewStepConvergecastSum(nd, t, total)
	return s
}

// Step advances one round-slice.
func (s *StepFloodItemsFromRoot) Step(nd *congest.Node) bool {
	for {
		switch s.sub {
		case 0:
			if !s.conv.Step(nd) {
				return false
			}
			s.bcast = NewStepBroadcastFromRoot(nd, s.t, s.conv.Sum())
			s.sub = 1
		case 1:
			if !s.bcast.Step(nd) {
				return false
			}
			s.rounds = int(s.bcast.Value()) + nd.N()
			s.sub = 2
		default:
			if s.r >= 1 && s.t.Parent != -1 {
				if m, ok := nd.RecvFrom(s.t.Parent); ok {
					s.queue = append(s.queue, m)
					s.got = append(s.got, m)
				}
			}
			if s.r == s.rounds {
				return true
			}
			if s.sendIdx < len(s.queue) {
				for _, c := range s.t.Children {
					nd.MustSend(c, s.queue[s.sendIdx])
				}
				s.sendIdx++
			}
			s.r++
			return false
		}
	}
}

// Items returns the root's items in root order; valid once done.
func (s *StepFloodItemsFromRoot) Items() []congest.Message { return s.got }

// StepHopMax floods a running maximum for a fixed number of hops (every
// node sends every hop). After k hops each node holds the maximum over its
// closed k-hop neighborhood. A positive width fixes the message size;
// width ≤ 0 sends natural-width messages (the wire format of
// NewStepTwoHopMax).
// Done on slice k. The zero value is ready for Restart, so programs embed it
// by value and restart it in place instead of allocating one per flood.
type StepHopMax struct {
	m    int64
	w, k int
	r    int
}

// NewStepHopMax starts a k-hop maximum of value with width-bit messages.
func NewStepHopMax(value int64, width, hops int) *StepHopMax {
	s := new(StepHopMax)
	s.Restart(value, width, hops)
	return s
}

// Restart begins a fresh k-hop maximum of value in place, exactly as
// NewStepHopMax(value, width, hops) would.
func (s *StepHopMax) Restart(value int64, width, hops int) {
	*s = StepHopMax{m: value, w: width, k: hops}
}

// NewStepTwoHopMax returns the maximum of value over the closed 2-hop
// neighborhood (self, neighbors, and neighbors' neighbors) in 2
// natural-width flood slices, done on slice 2: the "maximum ID in its two
// hop neighborhood" test of Theorem 1's Phase I. Values must be
// non-negative.
func NewStepTwoHopMax(value int64) *StepHopMax { return NewStepRHopMax(value, 2) }

// NewStepRHopMax is the depth-parametric form of NewStepTwoHopMax: r
// natural-width flood slices leave every node with the maximum over its
// closed r-hop neighborhood (done on slice r); at r = 2 it is
// message-for-message NewStepTwoHopMax. Fixed-width depth-r maxima (the
// MDS ρ̃ selection over 2r hops) use NewStepHopMax instead.
func NewStepRHopMax(value int64, hops int) *StepHopMax {
	if hops < 1 {
		panicCollective(fmt.Sprintf("primitives: NewStepRHopMax with hops %d < 1", hops))
	}
	return NewStepHopMax(value, 0, hops)
}

// Step advances one round-slice.
func (s *StepHopMax) Step(nd *congest.Node) bool {
	if s.r >= 1 {
		for _, in := range nd.Recv() {
			if v := in.Msg.(congest.Int).V; v > s.m {
				s.m = v
			}
		}
	}
	if s.r == s.k {
		return true
	}
	if s.w > 0 {
		nd.BroadcastNeighbors(congest.NewIntWidth(s.m, s.w))
	} else {
		nd.BroadcastNeighbors(congest.NewInt(s.m))
	}
	s.r++
	return false
}

// Max returns the k-hop maximum; valid once done.
func (s *StepHopMax) Max() int64 { return s.m }

// StepMinFlood is one round of minimum aggregation over G-neighbors, the
// estimator building block of Theorem 28's greedy-cover simulation: nodes
// holding a sample (own ≥ 0) broadcast it with a fixed width, and every node
// ends with the minimum of its own value and everything received (-1 when it
// saw nothing). Done on slice 1. The zero value is ready for Restart.
type StepMinFlood struct {
	best  int64
	width int
	r     int
}

// NewStepMinFlood starts a min-flood contributing own (-1 = no sample).
func NewStepMinFlood(own int64, width int) *StepMinFlood {
	s := new(StepMinFlood)
	s.Restart(own, width)
	return s
}

// Restart begins a fresh min-flood in place, exactly as
// NewStepMinFlood(own, width) would.
func (s *StepMinFlood) Restart(own int64, width int) {
	*s = StepMinFlood{best: own, width: width}
}

// Step advances one round-slice.
func (s *StepMinFlood) Step(nd *congest.Node) bool {
	if s.r == 1 {
		for _, in := range nd.Recv() {
			m, ok := in.Msg.(congest.Int)
			if !ok {
				continue
			}
			if s.best < 0 || m.V < s.best {
				s.best = m.V
			}
		}
		return true
	}
	if s.best >= 0 {
		nd.BroadcastNeighbors(congest.NewIntWidth(s.best, s.width))
	}
	s.r = 1
	return false
}

// Min returns the aggregated minimum (-1 if nothing was seen); valid once
// done.
func (s *StepMinFlood) Min() int64 { return s.best }

// RankID is StepRankFlood's message: a (rank, id) pair with explicit widths.
type RankID struct {
	Rank, ID       int64
	WidthR, WidthI int
}

// Bits returns the total declared width.
func (m RankID) Bits() int { return m.WidthR + m.WidthI }

// StepRankFlood is one round of lexicographic (rank, id) minimum aggregation
// over G-neighbors; rank < 0 means "no value". It also records which
// neighbors sent a value (the first hop of Theorem 28's voting uses this to
// detect neighboring candidates). Done on slice 1. The zero value is ready
// for Restart, which keeps the sender buffer of the previous flood.
type StepRankFlood struct {
	rank, id int64
	wR, wI   int
	senders  []int
	bestFrom int
	r        int
}

// NewStepRankFlood starts a rank-flood contributing (rank, id).
func NewStepRankFlood(rank, id int64, rankW, idW int) *StepRankFlood {
	s := new(StepRankFlood)
	s.Restart(rank, id, rankW, idW)
	return s
}

// Restart begins a fresh rank-flood in place, exactly as
// NewStepRankFlood(rank, id, rankW, idW) would; the previous flood's
// Senders slice is overwritten.
func (s *StepRankFlood) Restart(rank, id int64, rankW, idW int) {
	*s = StepRankFlood{rank: rank, id: id, wR: rankW, wI: idW, senders: s.senders[:0], bestFrom: -1}
}

// Step advances one round-slice.
func (s *StepRankFlood) Step(nd *congest.Node) bool {
	if s.r == 1 {
		for _, in := range nd.Recv() {
			m, ok := in.Msg.(RankID)
			if !ok {
				continue
			}
			s.senders = append(s.senders, in.From)
			if s.rank < 0 || m.Rank < s.rank || (m.Rank == s.rank && m.ID < s.id) {
				s.rank, s.id = m.Rank, m.ID
				s.bestFrom = in.From
			}
		}
		if s.rank < 0 {
			s.id = -1
		}
		return true
	}
	if s.rank >= 0 {
		nd.BroadcastNeighbors(RankID{Rank: s.rank, ID: s.id, WidthR: s.wR, WidthI: s.wI})
	}
	s.r = 1
	return false
}

// Best returns the lexicographic minimum (rank, id); id is -1 when nothing
// was seen. Valid once done.
func (s *StepRankFlood) Best() (rank, id int64) { return s.rank, s.id }

// Senders returns the neighbors that sent a value this flood, in ascending
// id order (inboxes arrive sorted by sender); valid once done. The slice is
// the flood's own buffer: Restart overwrites it, so a caller keeping the
// senders across floods copies them.
func (s *StepRankFlood) Senders() []int { return s.senders }

// BestFrom returns the neighbor whose message set the final best this flood,
// or -1 when the flood left the best unchanged. Chained rank floods use it
// to record adoption parents — the per-candidate in-trees the exact depth-r
// vote estimator routes along (see NewStepCandidateMinFloodRoutes). Valid
// once done.
func (s *StepRankFlood) BestFrom() int { return s.bestFrom }

// CandMin is StepCandidateMinFlood's message: a candidate id plus a
// quantized sample.
type CandMin struct {
	Cand, Q        int64
	WidthC, WidthQ int
}

// Bits returns the total declared width.
func (m CandMin) Bits() int { return m.WidthC + m.WidthQ }

// CandRoute records one adoption event of the chained rank floods: this
// node first held candidate Cand as its running best after Lvl flood stages,
// having heard it from neighbor From (-1 at the candidate itself, which
// holds its own id at Lvl 0). Because a node's running best only ever
// improves, it adopts at most one new candidate per stage, so the Lvl
// values of a node's routes are pairwise distinct — the property the exact
// vote estimator's relay schedule is built on.
type CandRoute struct {
	Cand, From, Lvl int
}

// candQ is one candidate's running vote minimum.
type candQ struct{ cand, q int64 }

// StepCandidateMinFlood is the r-round per-candidate minimum flood of
// Theorem 28's vote estimation (the congestion-avoiding trick of
// Section 6.1), generalized to depth-r collection for the Gʳ pipeline:
// voters hold a sample tagged with their chosen candidate, relays forward
// per-candidate running minima toward the candidate, and candidates read
// their own minimum. Done on slice hops+1, estimates exact at every depth.
//
// At hops ≤ 2 (the paper's G² case) the flood is byte-identical to the
// original two-round trick: voters broadcast, the single relay slice
// forwards each neighboring candidate its minimum, candidates read. For
// hops ≥ 3 broadcasting every candidate's minimum would exceed one message
// per link per round, so the flood instead routes along the adoption
// in-trees of the preceding chained rank floods (CandRoute): a node that
// first adopted candidate c after lvl stages sends its accumulated minimum
// for c to its adoption parent exactly in slice hops − lvl. Adoption
// parents adopted strictly earlier (lvl' < lvl), hence send strictly later,
// so every child minimum is merged before the parent forwards — and since a
// node's route levels are pairwise distinct, it sends at most one message
// per slice: zero congestion, every sample delivered, the Theorem-28
// estimate exact for every supported r (the conservative hops ≥ 3 spread
// this schedule replaces survives only in git history).
//
// The r estimator repetitions of one phase share everything but the voter's
// sample, so the flood separates the two: Prepare or PrepareRoutes installs
// (and validates) a phase's schedule once, and Restart(own) starts each
// flood of that phase in place. The per-candidate minima live in a reused
// slice searched linearly — a node sees at most deg + 1 candidates on the
// broadcast schedule and at most hops + 1 on the routed one — so a program
// embedding the flood by value allocates nothing per flood in steady state.
type StepCandidateMinFlood struct {
	// Per-phase schedule, installed by Prepare or PrepareRoutes.
	voteFor   int
	candNbrs  []int       // broadcast schedule: candidate G-neighbors, ascending
	byLvl     []CandRoute // routed schedule: the route at each level 0..hops, Lvl -1 where none
	routed    bool
	candidate bool
	wC, wQ    int
	hops      int

	// Per-flood state, reset by Restart.
	own     int64
	perCand []candQ
	best    int64
	r       int
}

// NewStepCandidateMinFlood starts one two-hop vote-estimation flood (the
// paper's G² case): voteFor is the candidate this node contributes to
// (-1 = none), own its quantized sample (-1 = none), candNbrs the
// G-neighbors known to be candidates in ascending order, and candidate
// whether this node collects a minimum for itself.
func NewStepCandidateMinFlood(voteFor int, own int64, candNbrs []int, candidate bool, candW, sampleW int) *StepCandidateMinFlood {
	return NewStepCandidateMinFloodR(voteFor, own, candNbrs, candidate, candW, sampleW, 2)
}

// NewStepCandidateMinFloodR is the depth-r form of NewStepCandidateMinFlood
// for hops ∈ {1, 2}, where voter broadcasts reach every relevant relay and
// the schedule needs no routing state. Deeper floods must supply adoption
// routes via NewStepCandidateMinFloodRoutes — the broadcast schedule cannot
// carry every candidate's minimum across ≥ 3 hops within the bandwidth
// budget, and the conservative fallback it used to degrade to is retired.
func NewStepCandidateMinFloodR(voteFor int, own int64, candNbrs []int, candidate bool, candW, sampleW, hops int) *StepCandidateMinFlood {
	s := new(StepCandidateMinFlood)
	s.Prepare(voteFor, candNbrs, candidate, candW, sampleW, hops)
	s.Restart(own)
	return s
}

// NewStepCandidateMinFloodRoutes starts the routed exact flood for any
// depth hops ≥ 1: routes are this node's adoption events from the hops
// chained rank floods that selected voteFor (one per candidate ever held,
// levels pairwise distinct in 0..hops, From = -1 exactly at level 0). A
// voter must hold a route for its own voteFor — it adopted that candidate
// by definition — so a missing route is a protocol bug, not data.
func NewStepCandidateMinFloodRoutes(voteFor int, own int64, routes []CandRoute, candidate bool, candW, sampleW, hops int) *StepCandidateMinFlood {
	s := new(StepCandidateMinFlood)
	s.PrepareRoutes(voteFor, routes, candidate, candW, sampleW, hops)
	s.Restart(own)
	return s
}

// Prepare installs the broadcast schedule of NewStepCandidateMinFloodR for
// the floods that follow, each started by Restart. candNbrs is kept, not
// copied: it must stay unchanged until the last of those floods is done.
func (s *StepCandidateMinFlood) Prepare(voteFor int, candNbrs []int, candidate bool, candW, sampleW, hops int) {
	if hops < 1 {
		panicCollective(fmt.Sprintf("primitives: StepCandidateMinFlood.Prepare with hops %d < 1", hops))
	}
	if hops > 2 {
		panicCollective(fmt.Sprintf("primitives: StepCandidateMinFlood.Prepare with hops %d > 2 (use PrepareRoutes)", hops))
	}
	s.voteFor, s.candNbrs, s.candidate = voteFor, candNbrs, candidate
	s.wC, s.wQ, s.hops = candW, sampleW, hops
	s.routed = false
}

// PrepareRoutes installs the routed schedule of
// NewStepCandidateMinFloodRoutes for the floods that follow, each started by
// Restart. The routes are validated and indexed by level here, once, and
// not read again.
func (s *StepCandidateMinFlood) PrepareRoutes(voteFor int, routes []CandRoute, candidate bool, candW, sampleW, hops int) {
	if hops < 1 {
		panicCollective(fmt.Sprintf("primitives: StepCandidateMinFlood.PrepareRoutes with hops %d < 1", hops))
	}
	s.byLvl = s.byLvl[:0]
	for range hops + 1 {
		s.byLvl = append(s.byLvl, CandRoute{Cand: -1, From: -1, Lvl: -1})
	}
	voteRouted := voteFor < 0
	for _, rt := range routes {
		if rt.Lvl < 0 || rt.Lvl > hops {
			panicCollective(fmt.Sprintf("primitives: candidate route level %d outside 0..%d", rt.Lvl, hops))
		}
		if (rt.From < 0) != (rt.Lvl == 0) {
			panicCollective(fmt.Sprintf("primitives: candidate route %+v: From must be -1 exactly at level 0", rt))
		}
		if s.byLvl[rt.Lvl].Lvl >= 0 {
			panicCollective(fmt.Sprintf("primitives: duplicate candidate route level %d", rt.Lvl))
		}
		s.byLvl[rt.Lvl] = rt
		if rt.Cand == voteFor {
			voteRouted = true
		}
	}
	if !voteRouted {
		panicCollective(fmt.Sprintf("primitives: voter for candidate %d has no adoption route to it", voteFor))
	}
	s.voteFor, s.candidate = voteFor, candidate
	s.wC, s.wQ, s.hops = candW, sampleW, hops
	s.routed = true
}

// Restart begins one flood of the prepared schedule in place, contributing
// own (-1 = no sample) toward voteFor.
func (s *StepCandidateMinFlood) Restart(own int64) {
	s.own = own
	s.perCand = s.perCand[:0]
	s.best = -1
	s.r = 0
}

// Step advances one round-slice.
func (s *StepCandidateMinFlood) Step(nd *congest.Node) bool {
	if s.routed {
		return s.stepRouted(nd)
	}
	switch {
	case s.r == 0:
		if s.own >= 0 {
			s.fold(int64(s.voteFor), s.own)
			nd.BroadcastNeighbors(CandMin{Cand: int64(s.voteFor), Q: s.own, WidthC: s.wC, WidthQ: s.wQ})
		}
	case s.r < s.hops:
		s.mergeRecv(nd)
		for _, u := range s.candNbrs {
			if q, ok := s.minOf(int64(u)); ok {
				nd.MustSend(u, CandMin{Cand: int64(u), Q: q, WidthC: s.wC, WidthQ: s.wQ})
			}
		}
	default:
		if s.candidate {
			if q, ok := s.minOf(int64(nd.ID())); ok {
				s.best = q
			}
			for _, in := range nd.Recv() {
				m, ok := in.Msg.(CandMin)
				if !ok || m.Cand != int64(nd.ID()) {
					continue
				}
				if s.best < 0 || m.Q < s.best {
					s.best = m.Q
				}
			}
		}
		return true
	}
	s.r++
	return false
}

// stepRouted advances the routed exact schedule: slice τ < hops sends the
// accumulated minimum of the level-(hops−τ) route (if any) to its adoption
// parent; the closing slice folds the last deliveries and lets candidates
// read their own minimum.
func (s *StepCandidateMinFlood) stepRouted(nd *congest.Node) bool {
	if s.r == 0 {
		if s.own >= 0 {
			s.fold(int64(s.voteFor), s.own)
		}
	} else {
		s.mergeRecv(nd)
	}
	if s.r == s.hops {
		if s.candidate {
			if q, ok := s.minOf(int64(nd.ID())); ok {
				s.best = q
			}
		}
		return true
	}
	if rt := s.byLvl[s.hops-s.r]; rt.From >= 0 {
		if q, have := s.minOf(int64(rt.Cand)); have {
			nd.MustSend(rt.From, CandMin{Cand: int64(rt.Cand), Q: q, WidthC: s.wC, WidthQ: s.wQ})
		}
	}
	s.r++
	return false
}

// mergeRecv folds this slice's deliveries into the per-candidate minima.
func (s *StepCandidateMinFlood) mergeRecv(nd *congest.Node) {
	for _, in := range nd.Recv() {
		if m, ok := in.Msg.(CandMin); ok {
			s.fold(m.Cand, m.Q)
		}
	}
}

// fold lowers cand's running minimum to q, recording cand if it is new.
func (s *StepCandidateMinFlood) fold(cand, q int64) {
	for i := range s.perCand {
		if s.perCand[i].cand == cand {
			s.perCand[i].q = min(s.perCand[i].q, q)
			return
		}
	}
	s.perCand = append(s.perCand, candQ{cand: cand, q: q})
}

// minOf returns cand's running minimum, if any sample for it arrived.
func (s *StepCandidateMinFlood) minOf(cand int64) (int64, bool) {
	for _, e := range s.perCand {
		if e.cand == cand {
			return e.q, true
		}
	}
	return 0, false
}

// Min returns this candidate's vote minimum (-1 when it saw none, or when
// the node is not a candidate); valid once done.
func (s *StepCandidateMinFlood) Min() int64 { return s.best }

// StepStatusExchange broadcasts a one-bit status to every G-neighbor and
// collects the neighbors that reported 1 (the R/U-status exchanges of
// Algorithm 1 and its variants). Done on slice 1.
type StepStatusExchange struct {
	status bool
	on     []int
	r      int
}

// NewStepStatusExchange starts a status exchange reporting status.
func NewStepStatusExchange(status bool) *StepStatusExchange {
	return &StepStatusExchange{status: status}
}

// Step advances one round-slice.
func (s *StepStatusExchange) Step(nd *congest.Node) bool {
	if s.r == 1 {
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				s.on = append(s.on, in.From)
			}
		}
		return true
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(bit(s.status), 1))
	s.r = 1
	return false
}

// On returns the neighbors that reported 1, in id order; valid once done.
func (s *StepStatusExchange) On() []int { return s.on }

// VotingConfig parameterizes StepVotingPhase.
type VotingConfig struct {
	// Tau is the candidacy threshold: a node is a candidate while its live
	// degree exceeds Tau (and it has not yet succeeded).
	Tau int
	// RandomIters is the number of iterations drawing random ranks before
	// ranks deterministically become node ids (the unconditional-termination
	// switch of Theorem 11 / Section 3.3).
	RandomIters int
	// MaxIters is the fixed iteration count of the CONGEST variant (which
	// has no cheap global OR); ignored when Clique is set.
	MaxIters int
	// Clique inserts the CONGESTED CLIQUE's global-OR round after each
	// status exchange and terminates as soon as no candidate remains.
	Clique bool
	// RankWidth and IDWidth are the bit widths of rank and vote messages.
	RankWidth int
	IDWidth   int
}

// StepVotingPhase is the randomized-rounding Phase I shared
// by Section 3.3 (plain CONGEST) and Theorem 11 (CONGESTED CLIQUE): each
// iteration exchanges live status, lets candidates announce random ranks,
// has live vertices vote for their highest-ranked incident candidate, and
// moves the neighborhoods of sufficiently-voted candidates into the cover.
// The clique variant spends one extra all-to-all round per iteration on the
// global "any candidate left?" OR and stops on it; the CONGEST variant runs
// a fixed iteration schedule instead. Done in the slice that collects the
// final iteration's join flags (queuing nothing, so the next stage starts in
// that same slice).
type StepVotingPhase struct {
	cfg     VotingConfig
	rankMax int64

	it, sub             int
	inR, inS, succeeded bool
	dR                  int
	candidate           bool
	voteFor             int
}

// NewStepVotingPhase starts the voting phase at this node.
func NewStepVotingPhase(cfg VotingConfig) *StepVotingPhase {
	return &StepVotingPhase{cfg: cfg, rankMax: int64(1) << uint(cfg.RankWidth), inR: true}
}

// Step advances one round-slice.
func (s *StepVotingPhase) Step(nd *congest.Node) bool {
	switch s.sub {
	case 0: // iteration start: collect joins, then exchange live status
		if s.it > 0 && len(nd.Recv()) > 0 {
			s.inS, s.inR = true, false
		}
		if !s.cfg.Clique && s.it == s.cfg.MaxIters {
			nd.SpanEnd("phase1", 0) // no-op when MaxIters == 0
			return true
		}
		if s.it == 0 {
			nd.SpanBegin("phase1", 0)
		}
		nd.SpanBegin("phase1-iter", s.it)
		nd.BroadcastNeighbors(congest.NewIntWidth(bit(s.inR), 1))
		s.sub = 1
	case 1: // count live neighbors; clique: start the global OR
		s.dR = 0
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				s.dR++
			}
		}
		s.candidate = !s.succeeded && s.dR > s.cfg.Tau
		if s.cfg.Clique {
			nd.Broadcast(congest.NewIntWidth(bit(s.candidate), 1))
			s.sub = 2
		} else {
			s.sendRank(nd)
			s.sub = 3
		}
	case 2: // clique only: read the OR; terminate, or announce ranks
		any := s.candidate
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				any = true
			}
		}
		if !any {
			nd.SpanEnd("phase1-iter", s.it)
			nd.SpanEnd("phase1", 0)
			return true
		}
		s.sendRank(nd)
		s.sub = 3
	case 3: // live vertices vote for the best incident rank
		s.voteFor = -1
		var bestRank int64 = -1
		if s.inR {
			for _, in := range nd.Recv() {
				m, ok := in.Msg.(congest.Int)
				if !ok {
					continue
				}
				// Highest rank wins; ties break toward the higher id
				// (deterministic, consistent at every voter).
				if m.V > bestRank || (m.V == bestRank && in.From > s.voteFor) {
					bestRank = m.V
					s.voteFor = in.From
				}
			}
		}
		if s.voteFor != -1 {
			nd.BroadcastNeighbors(congest.NewIntWidth(int64(s.voteFor), s.cfg.IDWidth))
		}
		s.sub = 4
	default: // count votes; successful candidates retire their neighborhoods
		votes := 0
		for _, in := range nd.Recv() {
			if m, ok := in.Msg.(congest.Int); ok && int(m.V) == nd.ID() {
				votes++
			}
		}
		if s.candidate && votes*8 >= s.dR {
			nd.BroadcastNeighbors(congest.Flag{})
			s.succeeded = true
		}
		nd.SpanEnd("phase1-iter", s.it)
		s.it++
		s.sub = 0
	}
	return false
}

// sendRank announces this candidate's rank: random below the w.h.p. horizon,
// then deterministically the node id.
func (s *StepVotingPhase) sendRank(nd *congest.Node) {
	if !s.candidate {
		return
	}
	var rank int64
	if s.it < s.cfg.RandomIters {
		rank = nd.Rand().Int63n(s.rankMax)
	} else {
		rank = int64(nd.ID())
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(rank, s.cfg.RankWidth))
}

// InR reports whether this node is still live (in R); valid once done.
func (s *StepVotingPhase) InR() bool { return s.inR }

// InS reports whether this node was moved into the cover during the phase;
// valid once done.
func (s *StepVotingPhase) InS() bool { return s.inS }

// PayeeSelector chooses, from this node's neighbor weights and live
// statuses, the neighbors a selected center would pay into the cover this
// iteration (the ripe weight classes of Theorem 7). An empty result means
// the node is not a candidate. The selector must be a pure function of its
// arguments — it is consulted once per iteration at every node.
type PayeeSelector func(nd *congest.Node, nbrWeight map[int]int64, inRNbr map[int]bool) []int

// StepWeightedLocalRatio is Theorem 7's Phase I, the
// weighted local-ratio payment loop: after one round learning neighbor
// weights, each of the fixed lockstep iterations exchanges live status,
// breaks symmetry between candidates with a 2-hop maximum, and lets each
// selected center pay its chosen neighbors (the selector's ripe-class
// members) into the cover; a final status exchange then collects the live
// neighborhood U. A node starts live iff its own weight is positive
// (zero-weight vertices are pre-covered, Section 3.2). Done in the slice
// that collects the final U-status exchange.
type StepWeightedLocalRatio struct {
	iterations, wBits int
	selector          PayeeSelector

	sub, it   int
	inR, inS  bool
	nbrWeight map[int]int64
	inRNbr    map[int]bool
	ripe      []int
	hop       StepHopMax
	uNbrs     []int
}

// Phase states of StepWeightedLocalRatio.
const (
	wlrWeights = iota // initial weight broadcast sent, awaiting delivery
	wlrStatus         // status read + candidate selection + 2-hop max start
	wlrHop            // 2-hop max in flight, payments on its final slice
	wlrJoin           // join flags read + next status broadcast
	wlrFinal          // final U-status read
)

// NewStepWeightedLocalRatio starts the weighted Phase I at this node; wBits
// is the fixed width of a weight report.
func NewStepWeightedLocalRatio(nd *congest.Node, iterations, wBits int, selector PayeeSelector) *StepWeightedLocalRatio {
	inR := nd.Weight() > 0
	return &StepWeightedLocalRatio{
		iterations: iterations, wBits: wBits, selector: selector,
		inR: inR, inS: !inR,
	}
}

// Step advances one round-slice.
func (s *StepWeightedLocalRatio) Step(nd *congest.Node) bool {
	switch s.sub {
	case wlrWeights:
		nd.SpanBegin("phase1", 0)
		nd.BroadcastNeighbors(congest.NewIntWidth(nd.Weight(), s.wBits))
		// The weight read happens at the top of the next slice, which also
		// broadcasts iteration 0's status — model it as iteration -1's join
		// slice so the shared wlrJoin path handles both.
		s.sub = wlrJoin
		s.it = -1
	case wlrJoin:
		if s.it < 0 {
			s.nbrWeight = make(map[int]int64, nd.Degree())
			for _, in := range nd.Recv() {
				s.nbrWeight[in.From] = in.Msg.(congest.Int).V
			}
			s.inRNbr = make(map[int]bool, nd.Degree())
			for _, u := range nd.Neighbors() {
				s.inRNbr[u] = s.nbrWeight[u] > 0
			}
		} else if len(nd.Recv()) > 0 {
			s.inS, s.inR = true, false
		}
		if s.it >= 0 {
			nd.SpanEnd("phase1-iter", s.it)
		}
		s.it++
		nd.BroadcastNeighbors(congest.NewIntWidth(bit(s.inR), 1))
		if s.it == s.iterations {
			s.sub = wlrFinal
		} else {
			nd.SpanBegin("phase1-iter", s.it)
			s.sub = wlrStatus
		}
	case wlrStatus:
		for _, in := range nd.Recv() {
			s.inRNbr[in.From] = in.Msg.(congest.Int).V == 1
		}
		s.ripe = s.selector(nd, s.nbrWeight, s.inRNbr)
		val := int64(0)
		if len(s.ripe) > 0 {
			val = int64(nd.ID()) + 1
		}
		s.hop.Restart(val, 0, 2) // the natural-width NewStepTwoHopMax
		s.hop.Step(nd)
		s.sub = wlrHop
	case wlrHop:
		if !s.hop.Step(nd) {
			return false
		}
		if len(s.ripe) > 0 && s.hop.Max() == int64(nd.ID())+1 {
			for _, u := range s.ripe {
				nd.MustSend(u, congest.Flag{})
			}
		}
		s.sub = wlrJoin
	default: // wlrFinal
		for _, in := range nd.Recv() {
			if in.Msg.(congest.Int).V == 1 {
				s.uNbrs = append(s.uNbrs, in.From)
			}
		}
		nd.SpanEnd("phase1", 0)
		return true
	}
	return false
}

// InR reports whether this node is still live; valid once done.
func (s *StepWeightedLocalRatio) InR() bool { return s.inR }

// InS reports whether this node was paid into the cover during Phase I;
// valid once done.
func (s *StepWeightedLocalRatio) InS() bool { return s.inS }

// UNbrs returns the neighbors still live after Phase I (the F-edge
// endpoints of Lemma 8), in id order; valid once done.
func (s *StepWeightedLocalRatio) UNbrs() []int { return s.uNbrs }

// NbrWeight returns the learned neighbor weights; valid once the first two
// slices completed (it is what the PayeeSelector receives).
func (s *StepWeightedLocalRatio) NbrWeight() map[int]int64 { return s.nbrWeight }

// StepLeaderPipeline chains the CONGEST Phase II of Theorem 1 and its
// variants: elect the minimum-id leader, build its BFS tree, pipeline every
// node's items to the leader, let the leader turn the gathered items into an
// answer (the solve callback, invoked only at the leader), and flood that
// answer back to every node. Done when the flood finishes.
type StepLeaderPipeline struct {
	items []congest.Message
	solve func(gathered []congest.Message) []congest.Message

	sub      int
	started  bool
	leader   *StepMinIDLeader
	bfs      *StepBFSTree
	tree     Tree
	gather   *StepGatherAtRoot
	flood    *StepFloodItemsFromRoot
	leaderID int
}

// NewStepLeaderPipeline starts the pipeline: items are this node's
// contributions to the leader gather; solve runs once at the leader over
// everything gathered and returns the items to flood back.
func NewStepLeaderPipeline(nd *congest.Node, items []congest.Message, solve func(gathered []congest.Message) []congest.Message) *StepLeaderPipeline {
	return &StepLeaderPipeline{items: items, solve: solve, leader: NewStepMinIDLeader(nd)}
}

// Step advances one round-slice.
func (s *StepLeaderPipeline) Step(nd *congest.Node) bool {
	for {
		switch s.sub {
		case 0:
			if !s.started {
				s.started = true
				nd.SpanBegin("leader-elect", 0)
			}
			if !s.leader.Step(nd) {
				return false
			}
			nd.SpanEnd("leader-elect", 0)
			s.leaderID = s.leader.Leader()
			s.bfs = NewStepBFSTree(nd, s.leaderID)
			nd.SpanBegin("bfs-tree", 0)
			s.sub = 1
		case 1:
			if !s.bfs.Step(nd) {
				return false
			}
			nd.SpanEnd("bfs-tree", 0)
			s.tree = s.bfs.Tree()
			s.gather = NewStepGatherAtRoot(nd, &s.tree, s.items)
			nd.SpanBegin("phase2-gather", 0)
			s.sub = 2
		case 2:
			if !s.gather.Step(nd) {
				return false
			}
			nd.SpanEnd("phase2-gather", 0)
			var down []congest.Message
			if nd.ID() == s.leaderID {
				nd.SpanBegin("leader-solve", 0)
				down = s.solve(s.gather.Collected())
				nd.SpanEnd("leader-solve", 0)
			}
			s.flood = NewStepFloodItemsFromRoot(nd, &s.tree, down)
			nd.SpanBegin("phase2-flood", 0)
			s.sub = 3
		default:
			done := s.flood.Step(nd)
			if done {
				nd.SpanEnd("phase2-flood", 0)
			}
			return done
		}
	}
}

// Leader returns the elected leader id; valid once the election finished.
func (s *StepLeaderPipeline) Leader() int { return s.leaderID }

// Items returns the flooded answer in leader order; valid once done.
func (s *StepLeaderPipeline) Items() []congest.Message { return s.flood.Items() }

// StepCliqueLeader is the CONGESTED CLIQUE's one-round leader election
// (Lemma 9): everyone flags everyone, the minimum id wins. Done on slice 1.
type StepCliqueLeader struct {
	leader int
	r      int
}

// NewStepCliqueLeader starts the election at this node.
func NewStepCliqueLeader(nd *congest.Node) *StepCliqueLeader {
	return &StepCliqueLeader{leader: nd.ID()}
}

// Step advances one round-slice.
func (s *StepCliqueLeader) Step(nd *congest.Node) bool {
	if s.r == 1 {
		for _, in := range nd.Recv() {
			if in.From < s.leader {
				s.leader = in.From
			}
		}
		return true
	}
	nd.Broadcast(congest.Flag{})
	s.r = 1
	return false
}

// Leader returns the elected minimum id; valid once done.
func (s *StepCliqueLeader) Leader() int { return s.leader }

// StepDirectGather is Lemma 9's parallel direct shipping over the clique's
// all-to-all links: in shipping slice j every non-root node sends its j-th
// item straight to the root. maxItems must upper-bound every node's item
// count and be common knowledge. The root ends with every item (its own
// appended last); done on slice maxItems.
type StepDirectGather struct {
	root, maxItems int
	items          []congest.Message
	collected      []congest.Message
	r              int
}

// NewStepDirectGather starts shipping this node's items to root.
func NewStepDirectGather(root int, items []congest.Message, maxItems int) *StepDirectGather {
	return &StepDirectGather{root: root, items: items, maxItems: maxItems}
}

// Step advances one round-slice.
func (s *StepDirectGather) Step(nd *congest.Node) bool {
	if s.r >= 1 && nd.ID() == s.root {
		for _, in := range nd.Recv() {
			s.collected = append(s.collected, in.Msg)
		}
	}
	if s.r == s.maxItems {
		if nd.ID() == s.root {
			s.collected = append(s.collected, s.items...)
		}
		return true
	}
	if s.r < len(s.items) && nd.ID() != s.root {
		nd.MustSend(s.root, s.items[s.r])
	}
	s.r++
	return false
}

// Collected returns every gathered item at the root (nil elsewhere); valid
// once done.
func (s *StepDirectGather) Collected() []congest.Message {
	return s.collected
}

func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
