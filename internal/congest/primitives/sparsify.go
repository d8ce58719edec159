package primitives

import (
	"fmt"
	"math/bits"

	"powergraph/internal/congest"
)

// Power-graph sparsification (after Maus–Peltonen–Uitto, arXiv 2302.06878,
// and the CONGEST power-graph speedups of Barenboim–Goldenberg,
// arXiv 2305.04358): instead of every near-U node shipping all of its
// incident edges to the leader, each node deterministically selects a
// certificate subset of them that still preserves every ≤ r-hop U-to-U
// path. The selection wants exact U-distances (membership in the near set
// alone would not tell which edges are useful), so the primitive layers
// dist(·, U) truncated at ⌊r/2⌋ — the deepest distance any endpoint of a
// useful edge can have (on a shortest U-to-U path of length k ≤ r, the node
// at position i sits at distance ≤ min(i, k−i) ≤ ⌊r/2⌋ from U).
//
// The layering is almost free. Phase I's final U-status exchange already
// tells every node whether it is in U and which neighbors are, so labels 0
// and 1 are local knowledge and layer 0 never spends a message — label 0 is
// seeded into each neighbor table instead. On top of that the schedule is
// r-dependent:
//
//	r ≤ 2   silent: every certificate decision resolves from the seeded
//	        1-ball alone (U-members infer unheard neighbors as dist-1).
//	r = 3   the label-1 shell announces once, to non-U neighbors only —
//	        the single round that buys the (1,1) reporter tiebreak and
//	        drops every edge leaving the 1-ball.
//	r = 4   silent again: reporters are still the 1-ball, but edges into
//	        layer 2 are now useful, and shipping each unresolved edge
//	        blind costs exactly one gathered item — strictly cheaper than
//	        any announce-and-reply scheme that would classify it first
//	        (see Certificate; the leader's rebuild dedups).
//	r ≥ 5   the full layered flood: freshly labeled nodes broadcast their
//	        label each slice so receivers adopt the next layer, except the
//	        deepest layer at even r, which answers only the senders it
//	        heard (see StepSparsify.targets).
//
// Every announcement is one ⌈log₂(⌊r/2⌋+1)⌉-bit label per link, far inside
// the O(log n) budget, and the whole exchange takes exactly
// SparsifyRounds(r) communication rounds on any graph, and the certificate
// ships only edges a ≤ r-hop U-to-U path can use (BENCH_sparsify.json
// prices the gather per cell).
//
// Certificate rule. A near node x (label dx ≤ d, d = ⌊(r-1)/2⌋ the
// reporting radius) keeps its edge {x, y} iff
//
//	dx + dy + 1 ≤ r                         (the edge can lie on a ≤ r-hop
//	                                         U-to-U path; dy is y's label)
//	and y is not also a designated reporter  (when dy ≤ d, only the endpoint
//	                                         with the lexicographically
//	                                         smaller (label, id) reports, so
//	                                         near-near edges ship once)
//
// with two label-free resolutions: a U-member treats an unheard neighbor as
// dist-1 (any neighbor of U is, and U-neighbors were seeded), and at r = 4
// the label-1 shell keeps every unheard neighbor outright — the edge is
// real, so the leader's rebuild can only gain witnesses, never invent
// paths.
//
// Exactness: on a shortest U-to-U path u = x₀, …, x_k = v with k ≤ r, every
// xᵢ has dist(xᵢ, U) ≤ min(i, k−i), so each edge {xᵢ, xᵢ₊₁} satisfies
// dx + dy + 1 ≤ min(i, k−i) + min(i+1, k−i−1) + 1 ≤ k ≤ r, has both labels
// within the ⌊r/2⌋ truncation, and has an endpoint with label ≤ ⌊(k−1)/2⌋
// ≤ d that keeps it (its designated reporter at announcing powers, either
// endpoint under the r = 4 blind keep) — so every certificate-filtered
// gather still contains a witness for every Gʳ[U] edge. Conversely every
// reported pair is a real G-edge, so the leader's rebuild-power-induce tail
// reconstructs Gʳ[U] exactly. Edges whose far endpoint never announced and
// is not blind-kept are dropped: no shortest ≤ r-hop U-to-U path can use
// them, because some witness path with all-near endpoints always exists.

// StepSparsify computes the truncated U-distance layering and the resulting
// certificate edge set at this node. Done on slice SparsifyRounds(r); the
// final slice consumes the deepest labels and queues nothing.
type StepSparsify struct {
	r, d     int
	maxLabel int // ⌊r/2⌋: the deepest layer of the truncation
	announce int // deepest label that announces itself (0 = silent schedule)
	rounds   int // SparsifyRounds(r)
	w        int // bits of one label message
	label    int // dist(this, U) truncated at maxLabel; -1 while unknown
	nbrLabel map[int]int
	// targets, when non-nil, restricts this node's label announcement to the
	// listed neighbors instead of a full broadcast: at even r ≥ 6 the deepest
	// layer is never a reporter and its layer-internal edges are never kept
	// (r/2 + r/2 + 1 > r), so its label only matters to the layer-(r/2 − 1)
	// senders it heard — everyone else would discard the message. And fewer
	// than two such senders means the node cannot be the midpoint of any
	// length-r U-to-U path (the only role the deepest layer plays at even
	// r), so it stays silent entirely and its dead-end star edges never
	// enter any certificate.
	targets []int
	slice   int
}

// NewStepSparsify starts the layered flood; inU and uNbrs come from Phase
// I's final U-status exchange. Distance ≤ 1 is already local knowledge, so
// labels 0 and 1 are seeded for free and U-neighbor entries pre-fill the
// label table — layer 0 never broadcasts at all.
func NewStepSparsify(r int, inU bool, uNbrs []int) *StepSparsify {
	if r < 1 {
		panicCollective(fmt.Sprintf("primitives: NewStepSparsify with power %d < 1", r))
	}
	s := &StepSparsify{r: r, d: (r - 1) / 2, maxLabel: r / 2, rounds: SparsifyRounds(r), label: -1}
	if r == 3 || r >= 5 {
		// r ≤ 2 resolves from the seeded 1-ball; r = 4 blind-keeps instead
		// of classifying (see the schedule table above). Everything else
		// floods to the truncation depth.
		s.announce = s.maxLabel
	}
	s.w = bits.Len(uint(s.maxLabel))
	if s.w < 1 {
		s.w = 1
	}
	switch {
	case inU:
		s.label = 0
	case len(uNbrs) > 0:
		s.label = 1
	}
	if len(uNbrs) > 0 {
		s.nbrLabel = make(map[int]int, len(uNbrs))
		for _, u := range uNbrs {
			s.nbrLabel[u] = 0
		}
	}
	return s
}

// SparsifyRounds returns the exact number of communication rounds
// StepSparsify spends at power r: one broadcast round per announcing label
// layer (none announce at r ∈ {1, 2, 4}, layers 1..⌊r/2⌋ otherwise),
// floored at one round so the stage's begin and end marks always fall in
// distinct rounds.
// The Phase-II gather's begin and end marks straddle exactly this many
// rounds; tests assert against it.
func SparsifyRounds(r int) int {
	if r <= 4 {
		return 1
	}
	return r / 2
}

// Step advances one round-slice. The stage is traced as the
// "phase2-sparsify" span, begun on the first slice and ended on the last.
func (s *StepSparsify) Step(nd *congest.Node) bool {
	if s.slice >= 1 {
		adopted := false
		for _, in := range nd.Recv() {
			m, ok := in.Msg.(congest.Int)
			if !ok {
				continue
			}
			if s.nbrLabel == nil {
				s.nbrLabel = make(map[int]int)
			}
			s.nbrLabel[in.From] = int(m.V)
			if s.label < 0 && s.slice+1 <= s.maxLabel {
				// Senders of the previous slice carry label slice, so this
				// node sits at the next layer (beyond ⌊r/2⌋ the layering is
				// truncated and the node stays unlabeled).
				s.label = s.slice + 1
				adopted = true
			}
		}
		if adopted && s.label == s.maxLabel && s.r%2 == 0 {
			// Every label sender of the adoption slice sits one layer up —
			// exactly the nodes this deepest layer must announce itself to.
			for _, in := range nd.Recv() {
				if _, ok := in.Msg.(congest.Int); ok {
					s.targets = append(s.targets, in.From)
				}
			}
		}
	}
	if s.slice == s.rounds {
		nd.SpanEnd("phase2-sparsify", 0)
		return true
	}
	if s.label == s.slice+1 && s.label <= s.announce {
		msg := congest.NewIntWidth(int64(s.label), s.w)
		switch {
		case s.targets != nil:
			// Even-r deepest layer: a midpoint needs two distinct upper-layer
			// neighbors; with fewer this node is a dead end and stays silent.
			if len(s.targets) >= 2 {
				for _, to := range s.targets {
					nd.MustSend(to, msg)
				}
			}
		case s.label == 1:
			// U-members infer unheard neighbors as dist-1 locally (see
			// Certificate), so the label-1 shell announces to non-U
			// neighbors only — seeded zero entries are exactly uNbrs.
			for _, y := range nd.Neighbors() {
				if dy, ok := s.nbrLabel[y]; ok && dy == 0 {
					continue
				}
				nd.MustSend(y, msg)
			}
		default:
			nd.BroadcastNeighbors(msg)
		}
	}
	if s.slice == 0 {
		// SparsifyRounds(r) ≥ 1, so begin and end always land in distinct
		// rounds and the span covers exactly SparsifyRounds(r) rounds.
		nd.SpanBegin("phase2-sparsify", 0)
	}
	s.slice++
	return false
}

// Near reports whether this node is a designated reporter (dist(·, U) ≤ d);
// valid once done: exactly the nodes within ⌊(r−1)/2⌋ hops of U.
func (s *StepSparsify) Near() bool { return s.label >= 0 && s.label <= s.d }

// Label returns dist(this, U) truncated at ⌊r/2⌋, or -1 when the node is
// farther than every announced label layer; valid once done.
func (s *StepSparsify) Label() int { return s.label }

// Certificate returns the neighbors whose edges this node reports: the
// deterministic certificate subset preserving ≤ r-hop U-to-U reachability.
// Empty unless the node is near. Valid once done.
func (s *StepSparsify) Certificate(nd *congest.Node) []int {
	if !s.Near() {
		return nil
	}
	dx := s.label
	var keep []int
	for _, y := range nd.Neighbors() {
		dy, heard := s.nbrLabel[y]
		if !heard {
			switch {
			case dx == 0:
				// x ∈ U, so every unheard neighbor sits at distance exactly
				// 1 (a U-neighbor would have been seeded) — no announcement
				// needed.
				dy = 1
			case s.r == 4:
				// Blind keep: y is dist ≥ 2 and unclassified (nothing
				// announces at r = 4). If y is a path midpoint the edge is a
				// needed witness; if not, one spurious-but-real G-edge
				// reaches the leader — still exact, and one gathered item is
				// cheaper than the announce-and-reply round trip that would
				// tell them apart.
				keep = append(keep, y)
				continue
			default:
				// y neither announced nor is a U-neighbor: dist(y, U) lies
				// beyond every announcing layer (or y is a silent even-r
				// dead end) — no shortest ≤ r-hop U-to-U path routes
				// through {x, y}.
				continue
			}
		}
		if dx+dy+1 > s.r {
			continue
		}
		if dy < dx || (dy == dx && y < nd.ID()) {
			// y is a designated reporter closer to U (or the id tiebreak
			// winner at equal distance); it reports this edge instead.
			continue
		}
		keep = append(keep, y)
	}
	return keep
}
