package congest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

// sentMsg is one message as its sender queued it, broadcasts expanded to
// their destinations.
type sentMsg struct {
	to  int
	msg Message
}

// contractProg runs every queueing shape the engine distinguishes, mixed
// within each round by (round + id) mod 4, and checks each delivery against
// a reference rebuilt from the senders' own logs. sent[r][v] is node v's
// log of round r: each node writes only its own slot, and reads the
// previous round's slots after the barrier, so the log is race-free at any
// shard count.
type contractProg struct {
	rounds int
	sent   [][][]sentMsg
}

func (p *contractProg) Step(nd *Node) (bool, error) {
	id, n, r := nd.ID(), nd.N(), nd.Round()
	if r > 0 {
		var want []Incoming
		for u, log := range p.sent[r-1] {
			for _, s := range log {
				if s.to == id {
					want = append(want, Incoming{From: u, Msg: s.msg})
				}
			}
		}
		got := nd.Recv()
		if !slices.Equal(got, want) {
			return true, fmt.Errorf("round %d: Recv %v, want %v", r, got, want)
		}
		for _, in := range got {
			if m, ok := nd.RecvFrom(in.From); !ok || m != in.Msg {
				return true, fmt.Errorf("round %d: RecvFrom(%d) = %v, %v; want %v", r, in.From, m, ok, in.Msg)
			}
		}
	}
	if r == p.rounds {
		return true, nil
	}
	nbrs := nd.Neighbors()
	far := -1 // some node that is not a neighbor
	for v := range n {
		if v != id && !slices.Contains(nbrs, v) {
			far = v
			break
		}
	}
	var log []sentMsg
	send := func(to int, m Message) {
		nd.MustSend(to, m)
		log = append(log, sentMsg{to, m})
	}
	bcastNbrs := func(m Message) {
		nd.BroadcastNeighbors(m)
		for _, u := range nbrs {
			log = append(log, sentMsg{u, m})
		}
	}
	msg := Pack(KindUser, int64(id), IDBits(n), int64(r), 1+(id+r)%5)
	switch (r + id) % 4 {
	case 0: // a neighbor broadcast queued once, then a send beyond it
		bcastNbrs(msg)
		if far >= 0 {
			send(far, NewIntWidth(int64(r), 4))
		}
		if len(nbrs) > 0 {
			if err := nd.Send(nbrs[0], Flag()); err == nil {
				return true, errors.New("second message to a neighbor accepted after BroadcastNeighbors")
			}
		}
	case 1: // a queued send, then the neighbor broadcast's slow path
		if far >= 0 {
			send(far, Flag())
		}
		bcastNbrs(msg)
	case 2: // a clique broadcast queued once; any further message must fail
		nd.Broadcast(msg)
		for v := range n {
			if v != id {
				log = append(log, sentMsg{v, msg})
			}
		}
		if err := nd.Send((id+1)%n, Flag()); n > 1 && err == nil {
			return true, errors.New("second message accepted after Broadcast")
		}
	default: // silent
	}
	p.sent[r][id] = log
	return false, nil
}

func (p *contractProg) Output() int { return 0 }

// TestShardedDeliveryContract holds the counting-sort delivery to its
// contract at shard counts 1, 2 and 7: every Recv equals the reference
// rebuilt from the sends (sorted by sender), RecvFrom finds each message,
// the duplicate guards reject second messages after a queued-once
// broadcast, and Stats — cut traffic included — equal a per-message
// recount.
func TestShardedDeliveryContract(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.12, newRand(5))
	n := g.N()
	cut := bitset.New(n)
	for v := 0; v < n; v += 3 {
		cut.Add(v)
	}
	const rounds = 9
	for _, shards := range []int{1, 2, 7} {
		p := &contractProg{rounds: rounds, sent: make([][][]sentMsg, rounds)}
		for r := range p.sent {
			p.sent[r] = make([][]sentMsg, n)
		}
		cfg := Config{Graph: g, Model: CongestedClique, Shards: shards, CutA: cut, BandwidthFactor: 4}
		res, err := RunProgram(cfg, func(*Node) StepProgram[int] { return p })
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want := Stats{Rounds: rounds, Bandwidth: res.Stats.Bandwidth}
		for _, round := range p.sent {
			var msgs, bits int64
			for u, log := range round {
				for _, s := range log {
					b := int64(s.msg.Bits())
					msgs++
					bits += b
					if cut.Contains(u) != cut.Contains(s.to) {
						want.CutBits += b
						want.CutMessages++
					}
				}
			}
			want.Messages += msgs
			want.TotalBits += bits
			want.MaxRoundBits = max(want.MaxRoundBits, bits)
			want.MaxRoundMessages = max(want.MaxRoundMessages, msgs)
		}
		if res.Stats != want {
			t.Fatalf("shards=%d: stats %+v, recount %+v", shards, res.Stats, want)
		}
	}
}

// TestShardedBroadcastAfterSendFails: under CONGESTED CLIQUE a Broadcast
// after a queued Send takes the per-destination path and fails on the
// duplicate, with the same error at every shard count.
func TestShardedBroadcastAfterSendFails(t *testing.T) {
	g := graph.Cycle(12)
	var want string
	for _, shards := range []int{1, 2, 7} {
		_, err := runScript(Config{Graph: g, Model: CongestedClique, Shards: shards}, func(nd *Node) (int, bool, error) {
			if nd.ID() == 4 {
				nd.MustSend(9, Flag())
			}
			nd.Broadcast(Flag())
			return 0, true, nil
		})
		if err == nil || !strings.Contains(err.Error(), "node 4: second message to 9") {
			t.Fatalf("shards=%d: err = %v, want node 4's duplicate", shards, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("shards=%d: err = %v, want %v", shards, err, want)
		}
	}
}

// panicProg panics at two nodes in round 1 and logs which nodes stepped.
type panicProg struct{ stepped [][]bool }

func (p *panicProg) Step(nd *Node) (bool, error) {
	p.stepped[nd.Round()][nd.ID()] = true
	if nd.Round() == 1 && (nd.ID() == 5 || nd.ID() == 17) {
		panic(fmt.Sprintf("probe panic at %d", nd.ID()))
	}
	return nd.Round() == 2, nil
}

func (p *panicProg) Output() int { return 0 }

// TestShardedSweepRecoversPanics: when two nodes panic in one sweep, the
// lower id's error wins, every later node still steps that round (the
// sweep resumes after each recovered panic), and the error names the
// panicking Step frame.
func TestShardedSweepRecoversPanics(t *testing.T) {
	const n = 24
	g := graph.Cycle(n)
	for _, shards := range []int{1, 2, 7} {
		p := &panicProg{stepped: [][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}}
		_, err := RunProgram(Config{Graph: g, Shards: shards}, func(*Node) StepProgram[int] { return p })
		if err == nil {
			t.Fatalf("shards=%d: run did not fail", shards)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "congest: node 5 panicked: probe panic at 5 [") || !strings.Contains(msg, "(*panicProg).Step") {
			t.Fatalf("shards=%d: err = %q, want node 5's panic naming (*panicProg).Step", shards, msg)
		}
		for v, ok := range p.stepped[1] {
			if !ok {
				t.Fatalf("shards=%d: node %d did not step in the panicking round", shards, v)
			}
		}
		if slices.Contains(p.stepped[2], true) {
			t.Fatalf("shards=%d: a node stepped after the aborting round", shards)
		}
	}
}

// TestIncomingHoldsNoPointer: a delivered message is a plain value, so the
// round's inbox is one pointer-free buffer the garbage collector never
// scans and delivery writes without write barriers.
func TestIncomingHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
			return true
		}
		return false
	}
	if ty := reflect.TypeOf(Incoming{}); !walk(ty) {
		t.Fatalf("%v holds a pointer", ty)
	}
}

// unicastExchangeProg broadcasts to its neighbors and sends one message
// beyond them every round (CONGESTED CLIQUE).
type unicastExchangeProg struct {
	rounds int
	sum    int64
}

func (p *unicastExchangeProg) Step(nd *Node) (bool, error) {
	for _, in := range nd.Recv() {
		p.sum += in.Msg.A
	}
	if nd.Round() == p.rounds {
		return true, nil
	}
	nd.BroadcastNeighbors(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
	nd.MustSend((nd.ID()+nd.N()/2)%nd.N(), NewInt(int64(nd.Round())))
	return false, nil
}

func (p *unicastExchangeProg) Output() int64 { return p.sum }

// TestRoundLoopAllocsBounded: steady-state rounds allocate nothing, so a
// broadcast-plus-unicast exchange allocates the same over 100 rounds as
// over 50, up to a small constant (buffers that reach their final size a
// round or two later).
func TestRoundLoopAllocsBounded(t *testing.T) {
	g := graph.Cycle(64) // node v+32 is never v's neighbor
	cfg := Config{Graph: g, Model: CongestedClique}
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := RunProgram(cfg, func(*Node) StepProgram[int64] { return &unicastExchangeProg{rounds: rounds} }); err != nil {
				t.Fatal(err)
			}
		})
	}
	a50, a100 := run(50), run(100)
	t.Logf("allocations per run: %.0f over 50 rounds, %.0f over 100", a50, a100)
	if a100 > a50+4 {
		t.Fatalf("100 rounds allocate %.0f, 50 rounds %.0f: the round loop allocates per round", a100, a50)
	}
}
