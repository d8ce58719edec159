package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// script is a test StepProgram built from one closure: step runs once per
// round (nd.Round() tells which) and reports the node's output once done.
// State a node keeps across rounds lives in slices indexed by node id.
type script[T any] struct {
	step func(nd *Node) (out T, done bool, err error)
	out  T
}

func (s *script[T]) Step(nd *Node) (bool, error) {
	out, done, err := s.step(nd)
	if done {
		s.out = out
	}
	return done, err
}

func (s *script[T]) Output() T { return s.out }

// runScript runs step on every node (see script).
func runScript[T any](cfg Config, step func(nd *Node) (T, bool, error)) (*Result[T], error) {
	return RunProgram(cfg, func(*Node) StepProgram[T] { return &script[T]{step: step} })
}

func TestIDBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Errorf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSingleRoundNeighborExchange(t *testing.T) {
	// Every node sends its id to all neighbors; after one round, each node
	// must have received exactly its neighbor set.
	g := graph.Cycle(5)
	res, err := runScript(Config{Graph: g}, func(nd *Node) ([]int, bool, error) {
		if nd.Round() == 0 {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
			return nil, false, nil
		}
		var got []int
		for _, in := range nd.Recv() {
			m := in.Msg
			if m.Kind != KindInt || int64(in.From) != m.A {
				return nil, true, fmt.Errorf("sender mismatch: %d vs %+v", in.From, m)
			}
			got = append(got, int(m.A))
		}
		return got, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.Messages != 10 {
		t.Fatalf("messages = %d, want 10", res.Stats.Messages)
	}
	for v := 0; v < 5; v++ {
		if got, want := res.Outputs[v], g.Neighbors(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: got %v want %v", v, got, want)
		}
	}
}

// TestBatchNeighborExchange pins inbox turnover across rounds: the engine
// only clears the inboxes of last round's receivers, so a node that
// receives in one round and not in the next must see an empty inbox, and
// every round's inbox holds exactly the previous round's senders, in id
// order.
func TestBatchNeighborExchange(t *testing.T) {
	g := graph.Grid(6, 7)
	const rounds = 10
	// Round r's senders are the nodes with id ≡ r (mod 3).
	sends := func(v, r int) bool { return v%3 == r%3 }
	res, err := runScript(Config{Graph: g, Seed: 3}, func(nd *Node) (bool, bool, error) {
		if r := nd.Round(); r > 0 {
			var want []int
			for _, u := range nd.Neighbors() {
				if sends(u, r-1) {
					want = append(want, u)
				}
			}
			var got []int
			for _, in := range nd.Recv() {
				got = append(got, in.From)
			}
			if !slices.Equal(got, want) {
				return false, true, fmt.Errorf("round %d: inbox from %v, want %v", r, got, want)
			}
		}
		if nd.Round() == rounds {
			return true, true, nil
		}
		if sends(nd.ID(), nd.Round()) {
			nd.BroadcastNeighbors(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
		}
		return false, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, rounds)
	}
}

// TestMessagesArriveOneRoundLater: a message sent in round r is invisible
// until round r+1.
func TestMessagesArriveOneRoundLater(t *testing.T) {
	g := graph.Path(2)
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.Round() == 0 {
			if len(nd.Recv()) != 0 {
				return 0, true, errors.New("round-0 inbox not empty")
			}
			nd.MustSend(1-nd.ID(), Flag())
			// Same round: still nothing.
			if len(nd.Recv()) != 0 {
				return 0, true, errors.New("message visible before barrier")
			}
			return 0, false, nil
		}
		if len(nd.Recv()) != 1 {
			return 0, true, errors.New("message not delivered after barrier")
		}
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendValidation covers the destination checks and the explicit
// duplicate-send check.
func TestSendValidation(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() != 0 {
			return 0, true, nil
		}
		if err := nd.Send(0, Flag()); err == nil {
			return 0, true, errors.New("self-send accepted")
		}
		if err := nd.Send(5, Flag()); err == nil {
			return 0, true, errors.New("out of range accepted")
		}
		if err := nd.Send(-1, Flag()); err == nil {
			return 0, true, errors.New("negative destination accepted")
		}
		if err := nd.Send(2, Flag()); err == nil {
			return 0, true, errors.New("non-neighbor accepted in CONGEST")
		}
		if err := nd.Send(1, Flag()); err != nil {
			return 0, true, err
		}
		if err := nd.Send(1, Flag()); err == nil {
			return 0, true, errors.New("duplicate per-round send accepted")
		}
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchSendValidation covers the round-stamped duplicate guards the
// broadcast fast path sets: a broadcast makes every later explicit send to
// a covered destination a duplicate, in both models, and every guard resets
// at the round boundary.
func TestBatchSendValidation(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for _, model := range []Model{CONGEST, CongestedClique} {
		_, err := runScript(Config{Graph: g, Model: model}, func(nd *Node) (int, bool, error) {
			if nd.ID() != 1 {
				return 0, nd.Round() == 3, nil
			}
			switch nd.Round() {
			case 0:
				// Broadcast covers the G-neighbors (CONGEST) or everyone
				// (clique).
				nd.Broadcast(Flag())
				if err := nd.Send(2, Flag()); err == nil {
					return 0, true, errors.New("send after Broadcast accepted")
				}
				if model == CongestedClique {
					if err := nd.Send(3, Flag()); err == nil {
						return 0, true, errors.New("clique send after Broadcast accepted")
					}
				}
			case 1:
				// The guards reset at the round boundary.
				if err := nd.Send(2, Flag()); err != nil {
					return 0, true, fmt.Errorf("fresh-round send rejected: %w", err)
				}
			case 2:
				// BroadcastNeighbors covers only the G-neighbors.
				nd.BroadcastNeighbors(Flag())
				if err := nd.Send(0, Flag()); err == nil {
					return 0, true, errors.New("send after BroadcastNeighbors accepted")
				}
				if model == CongestedClique {
					if err := nd.Send(3, Flag()); err != nil {
						return 0, true, fmt.Errorf("clique send to a non-neighbor rejected: %w", err)
					}
				}
			default:
				return 0, true, nil
			}
			return 0, false, nil
		})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Path(2)
	_, err := runScript(Config{Graph: g, BandwidthFactor: 1}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 0 {
			// n=2 ⇒ B = 1 bit; a 2-bit message must be rejected.
			if err := nd.Send(1, NewIntWidth(3, 2)); err == nil {
				return 0, true, errors.New("oversized message accepted")
			}
		}
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMustSendViolationAbortsRun(t *testing.T) {
	g := graph.Path(3)
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 0 && nd.Round() == 0 {
			nd.MustSend(2, Flag()) // not a neighbor: must abort the run
		}
		return 0, nd.Round() == 10, nil
	})
	if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
		t.Fatalf("err = %v, want the MustSend violation", err)
	}
}

// TestBatchMustSendViolationAbortsRun covers the broadcast paths' failures:
// an over-budget broadcast (the fast path) and a broadcast after an
// explicit send (the per-destination path, which meets a duplicate) both
// abort the run.
func TestBatchMustSendViolationAbortsRun(t *testing.T) {
	g := graph.Path(3)
	_, err := runScript(Config{Graph: g, BandwidthFactor: 1}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 1 {
			nd.Broadcast(NewIntWidth(3, 5)) // B = 2 bits at n = 3
		}
		return 0, nd.Round() == 3, nil
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("over-budget broadcast: err = %v", err)
	}
	_, err = runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 1 {
			nd.MustSend(2, Flag())
			nd.BroadcastNeighbors(Flag())
		}
		return 0, nd.Round() == 3, nil
	})
	if err == nil || !strings.Contains(err.Error(), "second message") {
		t.Fatalf("broadcast after send: err = %v", err)
	}
}

func TestHandlerErrorAbortsRun(t *testing.T) {
	g := graph.Cycle(4)
	sentinel := errors.New("boom")
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 2 {
			return 0, true, sentinel
		}
		return 0, false, nil // the other nodes would run forever without the abort
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

// TestBatchHandlerErrorAbortsRun: when several nodes fail in the same
// round, the run reports the lowest-id failure (the sweep runs in id
// order) and names the node.
func TestBatchHandlerErrorAbortsRun(t *testing.T) {
	g := graph.Cycle(12)
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.Round() == 1 && nd.ID()%4 == 3 {
			return 0, true, fmt.Errorf("failure at %d", nd.ID())
		}
		return 0, false, nil
	})
	if err == nil || err.Error() != "congest: node 3: failure at 3" {
		t.Fatalf("err = %v, want node 3's failure", err)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	g := graph.Path(2)
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 1 {
			panic("algorithm bug")
		}
		return 0, nd.Round() == 1, nil
	})
	if err == nil {
		t.Fatal("expected error from panicking step")
	}
}

// TestBatchHandlerPanicBecomesError: the error a panic turns into names the
// node and the panic value and carries a stack summary.
func TestBatchHandlerPanicBecomesError(t *testing.T) {
	_, err := runScript(Config{Graph: graph.Path(3)}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 2 {
			panic("algorithm bug")
		}
		return 0, nd.Round() == 1, nil
	})
	if err == nil {
		t.Fatal("expected error from panicking step")
	}
	msg := err.Error()
	if !strings.Contains(msg, "node 2 panicked: algorithm bug") || !strings.Contains(msg, "[") {
		t.Fatalf("panic error %q lacks node, value, or stack summary", msg)
	}
}

// TestRunProgramStepErrorAndPanic: failures in a later round, after other
// nodes already finished, still abort the run; newProgram runs once per
// node, in id order, before round 0.
func TestRunProgramStepErrorAndPanic(t *testing.T) {
	g := graph.Path(3)
	var order []int
	sentinel := errors.New("step failed")
	_, err := RunProgram(Config{Graph: g}, func(nd *Node) StepProgram[int] {
		order = append(order, nd.ID())
		return &script[int]{step: func(n *Node) (int, bool, error) {
			if n.ID() == 1 && n.Round() == 2 {
				return 0, false, sentinel
			}
			return 0, n.ID() == 0, nil
		}}
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("newProgram order %v, want [0 1 2]", order)
	}
	_, err = runScript(Config{Graph: g}, func(n *Node) (int, bool, error) {
		if n.ID() == 2 && n.Round() == 3 {
			panic("late step bug")
		}
		return 0, n.ID() == 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "late step bug") {
		t.Fatalf("err = %v, want the late panic", err)
	}
}

func TestMaxRounds(t *testing.T) {
	g := graph.Path(2)
	_, err := runScript(Config{Graph: g, MaxRounds: 5}, func(nd *Node) (int, bool, error) {
		return 0, false, nil
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// TestBatchMaxRounds pins the limit's boundary: a program that finishes in
// round R completes under MaxRounds = R and fails under R-1.
func TestBatchMaxRounds(t *testing.T) {
	const finish = 6
	run := func(limit int) (*Result[int], error) {
		return runScript(Config{Graph: graph.Path(2), MaxRounds: limit}, func(nd *Node) (int, bool, error) {
			return 0, nd.Round() == finish, nil
		})
	}
	res, err := run(finish)
	if err != nil || res.Stats.Rounds != finish {
		t.Fatalf("MaxRounds = %d: err = %v", finish, err)
	}
	if _, err := run(finish - 1); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("MaxRounds = %d: err = %v, want ErrMaxRounds", finish-1, err)
	}
}

func TestCliqueModelAllToAll(t *testing.T) {
	// In the CONGESTED CLIQUE over a path, node 0 can message node 3
	// directly even though they are not adjacent in G.
	g := graph.Path(4)
	res, err := runScript(Config{Graph: g, Model: CongestedClique}, func(nd *Node) (int, bool, error) {
		if nd.Round() == 0 {
			if nd.ID() == 0 {
				nd.MustSend(3, NewInt(42))
			}
			// Degree still reflects the input graph.
			if nd.ID() == 1 && nd.Degree() != 2 {
				return 0, true, errors.New("clique model changed input degrees")
			}
			return 0, false, nil
		}
		if nd.ID() == 3 {
			if len(nd.Recv()) != 1 || nd.Recv()[0].Msg.A != 42 {
				return 0, true, errors.New("clique message lost")
			}
			return 42, true, nil
		}
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[3] != 42 {
		t.Fatal("output not propagated")
	}
}

func TestCliqueBroadcastReachesEveryone(t *testing.T) {
	g := graph.Path(4)
	res, err := runScript(Config{Graph: g, Model: CongestedClique}, func(nd *Node) (int, bool, error) {
		if nd.Round() == 0 {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
			return 0, false, nil
		}
		return len(nd.Recv()), true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Outputs {
		if c != 3 {
			t.Fatalf("node %d received %d messages, want 3", v, c)
		}
	}
	if res.Stats.Messages != 12 {
		t.Fatalf("messages = %d, want 12", res.Stats.Messages)
	}
}

func TestStatsBitCounting(t *testing.T) {
	g := graph.Path(2)
	res, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 0 && nd.Round() == 0 {
			nd.MustSend(1, NewIntWidth(7, 3))
		}
		return 0, nd.Round() == 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalBits != 3 || res.Stats.Messages != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

// broadcastOnce has every node broadcast a Flag in round 0 and finish in
// round 1.
func broadcastOnce(nd *Node) (int, bool, error) {
	if nd.Round() == 0 {
		nd.Broadcast(Flag())
		return 0, false, nil
	}
	return 0, true, nil
}

func TestCutAccounting(t *testing.T) {
	// Path 0-1-2-3 with cut A = {0,1}: only messages over edge 1-2 cross.
	g := graph.Path(4)
	cut := bitset.FromIndices(4, 0, 1)
	res, err := runScript(Config{Graph: g, CutA: cut}, broadcastOnce)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutMessages != 2 || res.Stats.CutBits != 2 {
		t.Fatalf("cut stats = %+v", res.Stats)
	}
	if res.Stats.Messages != 6 {
		t.Fatalf("messages = %d", res.Stats.Messages)
	}
}

// TestBatchCliqueAndCutAccounting counts the cut in the clique model, where
// every ordered pair across it carries a message.
func TestBatchCliqueAndCutAccounting(t *testing.T) {
	g := graph.Path(4)
	cut := bitset.FromIndices(4, 0, 1)
	res, err := runScript(Config{Graph: g, Model: CongestedClique, CutA: cut}, broadcastOnce)
	if err != nil {
		t.Fatal(err)
	}
	// 2×2 ordered pairs across the cut in each direction: 8 crossing messages.
	if res.Stats.CutMessages != 8 || res.Stats.CutBits != 8 {
		t.Fatalf("cut stats = %+v, want 8 crossing messages", res.Stats)
	}
}

func TestCongestionPeakAccounting(t *testing.T) {
	// Round 0: everyone broadcasts (peak). Round 1: only node 0 sends.
	g := graph.Cycle(6)
	res, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		switch nd.Round() {
		case 0:
			nd.Broadcast(NewIntWidth(1, 2))
		case 1:
			if nd.ID() == 0 {
				nd.MustSend(nd.Neighbors()[0], NewIntWidth(1, 2))
			}
		default:
			return 0, true, nil
		}
		return 0, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxRoundMessages != 12 {
		t.Fatalf("peak messages = %d, want 12", res.Stats.MaxRoundMessages)
	}
	if res.Stats.MaxRoundBits != 24 {
		t.Fatalf("peak bits = %d, want 24", res.Stats.MaxRoundBits)
	}
	if res.Stats.Messages != 13 {
		t.Fatalf("total = %d, want 13", res.Stats.Messages)
	}
}

func TestConcurrentRunsShareGraphSafely(t *testing.T) {
	// Graphs are immutable; multiple simulations over the same graph must
	// be able to run concurrently (validated under -race), sharded or not.
	g := graph.Grid(5, 5)
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			_, err := runScript(Config{Graph: g, Seed: seed, Shards: int(seed)}, func(nd *Node) (int, bool, error) {
				if nd.Round() == 20 {
					return 0, true, nil
				}
				nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
				return 0, false, nil
			})
			errs <- err
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// drawOnce returns each node's first random draw.
func drawOnce(nd *Node) (int64, bool, error) { return nd.Rand().Int63(), true, nil }

func TestDeterministicRandomness(t *testing.T) {
	g := graph.Cycle(6)
	run := func() []int64 {
		res, err := runScript(Config{Graph: g, Seed: 99}, drawOnce)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different node randomness")
	}
	seen := map[int64]bool{}
	for _, v := range a {
		if seen[v] {
			t.Fatal("two nodes share a random stream")
		}
		seen[v] = true
	}
}

// TestBatchDeterministicRandomness: a node's random stream depends only on
// the seed and its id — not on the shard count or on the round of the
// first draw.
func TestBatchDeterministicRandomness(t *testing.T) {
	g := graph.Cycle(6)
	run := func(shards int, late bool) []int64 {
		res, err := runScript(Config{Graph: g, Seed: 99, Shards: shards}, func(nd *Node) (int64, bool, error) {
			if late && nd.Round() < 3 {
				return 0, false, nil
			}
			return drawOnce(nd)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	want := run(0, false)
	for _, sc := range []int{2, 3, 7} {
		if got := run(sc, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: per-node random streams differ", sc)
		}
	}
}

func TestEarlyFinisherDoesNotBlockOthers(t *testing.T) {
	g := graph.Path(3)
	res, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.ID() == 0 {
			return 1, true, nil // finishes in round 0
		}
		return 2, nd.Round() == 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 1 || res.Outputs[2] != 2 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestMessagesFromEarlyFinisherStillDelivered(t *testing.T) {
	g := graph.Path(2)
	res, err := runScript(Config{Graph: g}, func(nd *Node) (bool, bool, error) {
		if nd.ID() == 0 {
			nd.MustSend(1, Flag())
			return true, true, nil // finish at once; the message must still go out
		}
		if nd.Round() == 0 {
			return false, false, nil
		}
		return len(nd.Recv()) == 1, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[1] {
		t.Fatal("message from finished node was dropped")
	}
}

// TestBatchEarlyFinisherAndDelivery: a finished node is never stepped
// again — its output is the one it finished with — yet messages addressed
// to it are still delivered and accounted.
func TestBatchEarlyFinisherAndDelivery(t *testing.T) {
	g := graph.Path(3)
	steps := make([]int, g.N())
	res, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		steps[nd.ID()]++
		if nd.ID() == 0 {
			return 1, true, nil
		}
		if nd.ID() == 1 && nd.Round() < 3 {
			nd.MustSend(0, Flag()) // to a finished node
		}
		return 10 + nd.Round(), nd.Round() == 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps[0] != 1 || steps[1] != 4 || steps[2] != 4 {
		t.Fatalf("step counts = %v, want [1 4 4]", steps)
	}
	if res.Outputs[0] != 1 || res.Outputs[1] != 13 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	if res.Stats.Messages != 3 {
		t.Fatalf("messages = %d, want 3", res.Stats.Messages)
	}
}

func TestRecvFrom(t *testing.T) {
	g := graph.Path(3)
	_, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.Round() == 0 {
			nd.Broadcast(NewIntWidth(int64(nd.ID()), 4))
			return 0, false, nil
		}
		if nd.ID() == 1 {
			m, ok := nd.RecvFrom(2)
			if !ok || m.Kind != KindInt || m.A != 2 {
				return 0, true, errors.New("RecvFrom(2) failed")
			}
			if _, ok := nd.RecvFrom(1); ok {
				return 0, true, errors.New("RecvFrom(self) should be empty")
			}
		}
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := runScript(Config{Graph: graph.NewBuilder(0).Build()}, func(nd *Node) (int, bool, error) {
		return 0, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Fatal("unexpected outputs")
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := runScript(Config{}, func(nd *Node) (int, bool, error) { return 0, true, nil }); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestManyRoundsStress(t *testing.T) {
	// 200 nodes × 100 rounds of full neighbor exchange.
	g := graph.Grid(10, 20)
	sums := make([]int, g.N())
	res, err := runScript(Config{Graph: g}, func(nd *Node) (int, bool, error) {
		if nd.Round() > 0 {
			sums[nd.ID()] += len(nd.Recv())
		}
		if nd.Round() == 100 {
			return sums[nd.ID()], true, nil
		}
		nd.Broadcast(NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
		return 0, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 100 {
		t.Fatalf("rounds = %d", res.Stats.Rounds)
	}
	for v, got := range res.Outputs {
		if got != 100*g.Degree(v) {
			t.Fatalf("node %d: received %d, want %d", v, got, 100*g.Degree(v))
		}
	}
}

// TestEngineDifferentialRandomTraffic drives an adversarial random workload
// — per-node random sends, random message widths, random early exits —
// through the sequential sweep and a sharded one and requires identical
// outputs and stats.
func TestEngineDifferentialRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		model Model
	}{
		{"gnp-congest", graph.ConnectedGNP(40, 0.15, newRand(7)), CONGEST},
		{"grid-congest", graph.Grid(6, 6), CONGEST},
		{"path-clique", graph.Path(12), CongestedClique},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := bitset.New(tc.g.N())
			for v := 0; v < tc.g.N()/2; v++ {
				cut.Add(v)
			}
			run := func(shards int) *Result[int64] {
				n := tc.g.N()
				sums, rounds := make([]int64, n), make([]int, n)
				res, err := runScript(Config{Graph: tc.g, Model: tc.model, Seed: 42, CutA: cut, Shards: shards},
					func(nd *Node) (int64, bool, error) {
						rng := nd.Rand()
						if nd.Round() == 0 {
							rounds[nd.ID()] = 5 + rng.Intn(15) // nodes finish at different times
						}
						for _, in := range nd.Recv() {
							sums[nd.ID()] += in.Msg.A * int64(in.From+1)
						}
						if nd.Round() == rounds[nd.ID()] {
							return sums[nd.ID()], true, nil
						}
						peers := nd.Neighbors()
						if tc.model == CongestedClique {
							peers = nil
							for v := 0; v < nd.N(); v++ {
								if v != nd.ID() {
									peers = append(peers, v)
								}
							}
						}
						for _, u := range peers {
							if rng.Intn(3) == 0 {
								nd.MustSend(u, NewIntWidth(int64(rng.Intn(16)), 5))
							}
						}
						return 0, false, nil
					})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			seq, sh := run(1), run(3)
			if !reflect.DeepEqual(seq.Outputs, sh.Outputs) {
				t.Fatalf("outputs differ:\nshards=1: %v\nshards=3: %v", seq.Outputs, sh.Outputs)
			}
			if seq.Stats != sh.Stats {
				t.Fatalf("stats differ:\nshards=1: %+v\nshards=3: %+v", seq.Stats, sh.Stats)
			}
		})
	}
}
