package congest

import (
	"fmt"
	"math"
	"math/bits"
)

// Message is one CONGEST message: at most two integer fields, each with
// the width in bits its field would take on a real link, plus an optional
// discriminator width. That is exactly the O(log n)-bit message of the
// model, and the simulator enforces the per-round budget against Bits.
//
// A Message is a plain value with no pointers: queuing, delivering and
// receiving one copies 24 bytes and never allocates. Kind says how the
// fields are to be read; it is simulator-side type information and costs
// no bits (a protocol that puts a discriminator on the wire charges it in
// TagBits). Widths saturate at 65 535 bits, far past any budget.
type Message struct {
	A, B int64
	// WA and WB are the declared widths of A and B (0 for an unused field).
	WA, WB uint16
	// TagBits is the declared width of anything sent beside the fields: a
	// Flag's single bit, or a discriminator between item kinds that share
	// one round.
	TagBits uint8
	Kind    Kind
}

// Bits returns the declared size of the message on the wire.
func (m Message) Bits() int { return int(m.TagBits) + int(m.WA) + int(m.WB) }

// String formats the message as its fields and widths: {} for a flag,
// {v width} for an int, {a b widthA widthB} for a pair, and the kind and
// tag width besides for a protocol kind.
func (m Message) String() string {
	switch m.Kind {
	case KindFlag:
		return "{}"
	case KindInt:
		return fmt.Sprintf("{%d %d}", m.A, m.WA)
	case KindPair:
		return fmt.Sprintf("{%d %d %d %d}", m.A, m.B, m.WA, m.WB)
	}
	return fmt.Sprintf("{kind %d: %d %d %d %d tag %d}", m.Kind, m.A, m.B, m.WA, m.WB, m.TagBits)
}

// Kind tags how a Message's fields are read, so a receiver can tell apart
// messages of different shapes arriving in the same round.
type Kind uint8

const (
	// KindFlag is a 1-bit signal with no fields (Flag).
	KindFlag Kind = iota + 1
	// KindInt carries one integer in A (NewInt, NewIntWidth).
	KindInt
	// KindPair carries two integers in A and B (NewPair).
	KindPair
	// KindUser is the first kind left to protocol packages. Each package
	// claims its own block so kinds that may share a round stay distinct:
	// the step primitives use KindUser onward, internal/core KindUser+8
	// onward.
	KindUser Kind = 16
)

// Pack builds a message of the given kind with two fields of declared
// widths; a one-field message passes b = 0 and wb = 0.
func Pack(kind Kind, a int64, wa int, b int64, wb int) Message {
	return Message{A: a, B: b, WA: width(wa), WB: width(wb), Kind: kind}
}

// width converts a declared width to its stored form, saturating instead
// of wrapping so an oversized declaration still fails the budget check.
func width(w int) uint16 {
	if w <= 0 {
		return 0
	}
	return uint16(min(w, math.MaxUint16))
}

// Flag returns a 1-bit message (presence/absence signals, wave tokens).
func Flag() Message { return Message{TagBits: 1, Kind: KindFlag} }

// NewInt packs v ≥ 0 into its natural width (minimum 1 bit).
func NewInt(v int64) Message {
	return NewIntWidth(v, max(bits.Len64(uint64(v)), 1))
}

// NewIntWidth packs v with a fixed width, for protocols whose analysis
// charges a fixed field size (e.g. an id field of ⌈log₂ n⌉ bits).
func NewIntWidth(v int64, w int) Message { return Pack(KindInt, v, w, 0, 0) }

// NewPair packs two non-negative values (e.g. an (id, value) report) with
// id-width fields for a network of n nodes.
func NewPair(n int, a, b int64) Message {
	w := IDBits(n)
	return Pack(KindPair, a, w, b, w)
}
