package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
		want := expandedInbox(p.sent[r-1], id)
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

// expandedInbox is the reference delivery: node id's messages of a round
// whose senders' logs are sent (sent[u] is node u's), in sender order.
func expandedInbox(sent [][]sentMsg, id int) []Incoming {
	var in []Incoming
	for u, log := range sent {
		for _, s := range log {
			if s.to == id {
				in = append(in, Incoming{From: u, Msg: s.msg})
			}
		}
	}
	return in
}

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
		if want := recountStats(p.sent, cut, res.Stats.Bandwidth); res.Stats != want {
			t.Fatalf("shards=%d: stats %+v, recount %+v", shards, res.Stats, want)
		}
	}
}

// recountStats rebuilds a run's Stats from its senders' logs (sent[r][u] is
// node u's log of round r), one message at a time, with the cut traffic
// of cut (nil for none); every logged round counts as a round.
func recountStats(sent [][][]sentMsg, cut *bitset.Set, bandwidth int) Stats {
	want := Stats{Rounds: len(sent), Bandwidth: bandwidth}
	for _, round := range sent {
		var msgs, bits int64
		for u, log := range round {
			for _, s := range log {
				b := int64(s.msg.Bits())
				msgs++
				bits += b
				if cut != nil && cut.Contains(u) != cut.Contains(s.to) {
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
	return want
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

// The sends a randomProg node makes in one round.
const (
	planQuiet     = iota
	planBcastAll  // Broadcast: the all-node fast path under CONGESTED CLIQUE
	planBcastNbrs // BroadcastNeighbors' fast path
	planSendNbrs  // a Send, then BroadcastNeighbors' per-destination path
	planTargeted  // Sends to a few distinct destinations
)

// randomProg runs a seeded plan of sends (plan[r][v] is node v's in round
// r) and checks every Recv against the inbox it expands from the senders'
// logs itself, as contractProg does. Every node reads its inbox twice per
// step, with RecvFrom calls between the reads, and a third of them read
// after sending.
type randomProg struct {
	plan [][]uint8
	sent [][][]sentMsg
	sum  []int64
}

// newRandomProg draws a plan of rounds rounds for g: pure all-broadcast
// rounds at a random broadcaster density, all-broadcast rounds with one
// other sender, fully mixed rounds and quiet rounds.
func newRandomProg(g *graph.Graph, model Model, rounds int, rng *rand.Rand) *randomProg {
	n := g.N()
	p := &randomProg{plan: make([][]uint8, rounds), sent: make([][][]sentMsg, rounds), sum: make([]int64, n)}
	for r := range p.plan {
		plan := make([]uint8, n)
		switch rng.Intn(4) {
		case 0: // pure all-broadcast
			density := []float64{1, 0.5, 0.05}[rng.Intn(3)]
			for v := range plan {
				if rng.Float64() < density {
					plan[v] = planBcastAll
				}
			}
		case 1: // all-broadcast plus one other send
			for v := range plan {
				plan[v] = planBcastAll
			}
			plan[rng.Intn(n)] = uint8(planBcastNbrs + rng.Intn(3))
		case 2: // mixed
			for v := range plan {
				plan[v] = uint8(rng.Intn(5))
			}
		default: // quiet
		}
		if model == CONGEST {
			for v, k := range plan {
				if k == planSendNbrs {
					// Every CONGEST destination is a neighbor, which the
					// broadcast after the send would hit a second time.
					plan[v] = planTargeted
				}
			}
		}
		p.plan[r] = plan
		p.sent[r] = make([][]sentMsg, n)
	}
	return p
}

func (p *randomProg) Step(nd *Node) (bool, error) {
	last := nd.Round() == len(p.plan)
	readLate := nd.ID()%3 == 0 && !last
	if !readLate {
		if err := p.read(nd); err != nil {
			return true, err
		}
	}
	if last {
		return true, nil
	}
	if err := p.send(nd); err != nil {
		return true, err
	}
	if readLate {
		if err := p.read(nd); err != nil {
			return true, err
		}
	}
	return false, nil
}

// read checks this round's Recv, read twice around RecvFrom calls, against
// the expanded reference.
func (p *randomProg) read(nd *Node) error {
	id, r := nd.ID(), nd.Round()
	var want []Incoming
	if r > 0 {
		want = expandedInbox(p.sent[r-1], id)
	}
	first := nd.Recv()
	if !slices.Equal(first, want) {
		return fmt.Errorf("round %d: Recv %v, want %v", r, first, want)
	}
	for _, in := range want {
		if m, ok := nd.RecvFrom(in.From); !ok || m != in.Msg {
			return fmt.Errorf("round %d: RecvFrom(%d) = %v, %v; want %v", r, in.From, m, ok, in.Msg)
		}
		p.sum[id] += in.Msg.A
	}
	if _, ok := nd.RecvFrom(id); ok {
		return fmt.Errorf("round %d: RecvFrom(self) found a message", r)
	}
	if second := nd.Recv(); !slices.Equal(second, want) || !slices.Equal(first, want) {
		return fmt.Errorf("round %d: second Recv %v (first now %v), want %v", r, second, first, want)
	}
	return nil
}

// send makes this round's planned sends and logs them expanded.
func (p *randomProg) send(nd *Node) error {
	id, n, r := nd.ID(), nd.N(), nd.Round()
	nbrs := nd.Neighbors()
	clique := nd.eng.model == CongestedClique
	var log []sentMsg
	sendTo := func(to int, m Message) {
		nd.MustSend(to, m)
		log = append(log, sentMsg{to, m})
	}
	toNbrs := func(m Message) {
		for _, u := range nbrs {
			log = append(log, sentMsg{u, m})
		}
	}
	msg := Pack(KindUser, int64(id), IDBits(n), int64(r), 1+(id+r)%5)
	switch p.plan[r][id] {
	case planBcastAll:
		nd.Broadcast(msg)
		if !clique {
			toNbrs(msg)
			break
		}
		for v := range n {
			if v != id {
				log = append(log, sentMsg{v, msg})
			}
		}
	case planBcastNbrs:
		nd.BroadcastNeighbors(msg)
		toNbrs(msg)
	case planSendNbrs:
		for v := range n {
			if v != id && !slices.Contains(nbrs, v) {
				sendTo(v, NewIntWidth(int64(r), 4))
				break
			}
		}
		nd.BroadcastNeighbors(msg)
		toNbrs(msg)
	case planTargeted:
		// Up to three distinct destinations drawn from (id, r) alone.
		cands := nbrs
		if clique {
			cands = nil
			for v := range n {
				if v != id {
					cands = append(cands, v)
				}
			}
		}
		for k := range min(3, len(cands)) {
			sendTo(cands[(id*7+r*13+k)%len(cands)], NewIntWidth(int64(k+1), 3))
		}
		if len(cands) > 0 {
			if err := nd.Send(log[0].to, Flag()); err == nil {
				return errors.New("second message to one destination accepted")
			}
		}
	}
	p.sent[r][id] = log
	return nil
}

func (p *randomProg) Output() int64 { return 0 }

// runRandomProg runs a fresh randomProg drawn from seed under cfg and
// returns it with the run's result.
func runRandomProg(t *testing.T, cfg Config, rounds int, seed int64) (*randomProg, *Result[int64]) {
	t.Helper()
	p := newRandomProg(cfg.Graph, cfg.Model, rounds, newRand(seed))
	res, err := RunProgram(cfg, func(*Node) StepProgram[int64] { return p })
	if err != nil {
		t.Fatalf("seed %d, model %v, shards %d: %v", seed, cfg.Model, cfg.Shards, err)
	}
	return p, res
}

// TestShardedBroadcastDeliveryMatchesExpanded holds delivery to a
// reference that expands every queued send itself, on seeded random
// programs that mix pure all-broadcast rounds (shared broadcast list) with
// all-broadcast rounds that carry one other send, neighbor broadcasts,
// broadcasts after a Send, targeted sends and quiet rounds (counting
// sort), while broadcasters read their own view twice per step. Every
// shard count must give the same Stats, equal to a per-message recount,
// and the same sums of received values.
func TestShardedBroadcastDeliveryMatchesExpanded(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := graph.ConnectedGNP(20+int(seed)*7, 0.15, newRand(seed))
		n := g.N()
		var ref *randomProg
		var refStats Stats
		for _, shards := range []int{1, 2, 3, n + 1} {
			cfg := Config{Graph: g, Model: CongestedClique, Shards: shards}
			p, res := runRandomProg(t, cfg, 24, seed)
			if ref == nil {
				ref, refStats = p, res.Stats
				if want := recountStats(p.sent, nil, res.Stats.Bandwidth); res.Stats != want {
					t.Fatalf("seed %d: stats %+v, recount %+v", seed, res.Stats, want)
				}
				continue
			}
			if res.Stats != refStats {
				t.Fatalf("seed %d, shards %d: stats %+v, sequential %+v", seed, shards, res.Stats, refStats)
			}
			if !slices.Equal(p.sum, ref.sum) {
				t.Fatalf("seed %d, shards %d: received sums differ from the sequential run", seed, shards)
			}
		}
	}
}

// TestCutAccountingMatchesBruteForce pins CutBits and CutMessages, whose
// all-node broadcast term is computed from |A| alone, to a recount over
// every logged message on random cuts (empty and whole cuts included),
// under both models.
func TestCutAccountingMatchesBruteForce(t *testing.T) {
	rng := newRand(11)
	for _, model := range []Model{CONGEST, CongestedClique} {
		for seed := int64(1); seed <= 6; seed++ {
			g := graph.ConnectedGNP(25+int(seed)*3, 0.2, newRand(seed))
			n := g.N()
			cut := bitset.New(n)
			density := []float64{0, 1, 0.1, 0.5, 0.9, rng.Float64()}[seed-1]
			for v := range n {
				if rng.Float64() < density {
					cut.Add(v)
				}
			}
			cfg := Config{Graph: g, Model: model, CutA: cut}
			p, res := runRandomProg(t, cfg, 16, seed)
			if want := recountStats(p.sent, cut, res.Stats.Bandwidth); res.Stats != want {
				t.Fatalf("%v, seed %d, |A| = %d: stats %+v, recount %+v", model, seed, cut.Count(), res.Stats, want)
			}
		}
	}
}

// TestCliqueBroadcastAllocsBounded: a CONGESTED CLIQUE round in which all
// n = 2000 nodes broadcast, followed by every node reading its inbox,
// allocates far less than an inbox of the n(n−1) messages it delivers.
func TestCliqueBroadcastAllocsBounded(t *testing.T) {
	const n = 2000
	cfg := Config{Graph: graph.Cycle(n), Model: CongestedClique}
	run := func() {
		res, err := runExchange(cfg, 1, IDBits(n), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Messages != n*(n-1) || res.Outputs[0] != n-1 || res.Outputs[n-1] != n-1 {
			t.Fatalf("stats %+v, outputs %d…%d: want %d messages, %d each", res.Stats, res.Outputs[0], res.Outputs[n-1], n*(n-1), n-1)
		}
	}
	run()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	expanded := uint64(n*(n-1)) * uint64(unsafe.Sizeof(Incoming{}))
	t.Logf("%d bytes allocated per run; an expanded inbox holds %d", perRun, expanded)
	if perRun*20 > expanded {
		t.Fatalf("%d bytes allocated per run, more than 1/20 of the %d-byte expanded inbox", perRun, expanded)
	}
}
