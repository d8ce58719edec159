package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// probeProg is a step program built to stress every shard-staged side
// effect at once: per-node randomness, broadcasts and targeted sends,
// nested span marks, and nodes that finish at different rounds (so shard
// liveness counts actually move).
type probeProg struct {
	rounds int
	sum    int64
}

func (p *probeProg) Step(nd *Node) (bool, error) {
	r := nd.Round()
	if r == 0 {
		nd.SpanBegin("probe", 0)
	}
	for _, in := range nd.Recv() {
		p.sum += in.Msg.A
	}
	if r >= p.rounds {
		nd.SpanEnd("probe", 0)
		return true, nil
	}
	if (nd.ID()+r)%4 == 0 {
		nd.SpanBegin("burst", r)
		v := nd.Rand().Int63n(1 << 10)
		nd.BroadcastNeighbors(NewIntWidth(v, 11))
		nd.SpanEnd("burst", r)
	} else if nbrs := nd.Neighbors(); len(nbrs) > 0 && r%2 == 1 {
		to := nbrs[int(nd.Rand().Int31n(int32(len(nbrs))))]
		nd.MustSend(to, NewIntWidth(int64(nd.ID()), IDBits(nd.N())))
	}
	return false, nil
}

func (p *probeProg) Output() int64 { return p.sum }

// probeConfig builds the common config; shards ≤ 1 is the sequential sweep.
func probeConfig(g *graph.Graph, shards int, tr obs.Tracer) Config {
	// BandwidthFactor 16 keeps the probe's 11-bit payloads legal even on
	// the tiny graphs (n = 3 has a default budget of just 8 bits).
	return Config{Graph: g, Shards: shards, Seed: 42, Tracer: tr, BandwidthFactor: 16}
}

func runProbe(t *testing.T, g *graph.Graph, shards int) (*Result[int64], *obs.Collector) {
	t.Helper()
	col := &obs.Collector{CollectRounds: true}
	res, err := RunProgram(probeConfig(g, shards, col), func(nd *Node) StepProgram[int64] {
		return &probeProg{rounds: 6 + nd.ID()%5}
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res, col
}

// TestShardedBatchMatchesSequential is the core shard-barrier determinism
// contract: outputs, Stats, per-round trace events, and span mark streams
// are identical to the sequential batch sweep at every shard count,
// including adversarial ones (one-node shards, more shards than nodes —
// i.e. empty shards).
func TestShardedBatchMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle24": graph.Cycle(24),
		"star17":  graph.Star(17),
		"gnp40":   graph.ConnectedGNP(40, 0.15, rand.New(rand.NewSource(7))),
		"path3":   graph.Path(3),
		"single":  graph.Path(1),
		"tree100": graph.RandomTree(100, rand.New(rand.NewSource(9))),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want, wantCol := runProbe(t, g, 0)
			n := g.N()
			shardCounts := []int{1, 2, 3, 7, n - 1, n, n + 1, 2*n + 5, runtime.GOMAXPROCS(0)}
			for _, sc := range shardCounts {
				if sc < 1 {
					continue
				}
				got, gotCol := runProbe(t, g, sc)
				if !reflect.DeepEqual(want.Outputs, got.Outputs) {
					t.Fatalf("shards=%d: outputs diverge", sc)
				}
				if want.Stats != got.Stats {
					t.Fatalf("shards=%d: stats diverge:\nseq:     %+v\nsharded: %+v", sc, want.Stats, got.Stats)
				}
				if !reflect.DeepEqual(wantCol.RoundEvents(), gotCol.RoundEvents()) {
					t.Fatalf("shards=%d: round event streams diverge", sc)
				}
				wb, we := wantCol.SpanMarks()
				gb, ge := gotCol.SpanMarks()
				if !reflect.DeepEqual(wb, gb) || !reflect.DeepEqual(we, ge) {
					t.Fatalf("shards=%d: span mark streams diverge", sc)
				}
				if wantCol.SpanSummary() != gotCol.SpanSummary() {
					t.Fatalf("shards=%d: span summaries diverge:\nseq:     %s\nsharded: %s",
						sc, wantCol.SpanSummary(), gotCol.SpanSummary())
				}
			}
		})
	}
}

// TestShardedErrorDeterminism: when several nodes fail in one round, the
// sharded barrier must surface exactly the error the sequential sweep
// surfaces — the lowest-id failure — regardless of which worker saw its
// failure first.
func TestShardedErrorDeterminism(t *testing.T) {
	g := graph.Cycle(40)
	run := func(shards int) error {
		_, err := runScript(probeConfig(g, shards, nil), func(nd *Node) (int, bool, error) {
			if nd.Round() == 2 && nd.ID()%5 == 3 {
				return 0, false, fmt.Errorf("probe failure")
			}
			return 0, false, nil
		})
		return err
	}
	want := run(0)
	if want == nil {
		t.Fatal("sequential run did not fail")
	}
	for _, sc := range []int{2, 7, 40, 96} {
		got := run(sc)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("shards=%d: error %v, want %v", sc, got, want)
		}
	}
}

// TestShardedMaxRounds checks the round-limit abort path shuts the worker
// pool down cleanly and reports the identical error.
func TestShardedMaxRounds(t *testing.T) {
	g := graph.Path(12)
	for _, sc := range []int{0, 3, 12} {
		cfg := probeConfig(g, sc, nil)
		cfg.MaxRounds = 25
		_, err := runScript(cfg, func(nd *Node) (int, bool, error) { return 0, false, nil })
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("shards=%d: err = %v, want ErrMaxRounds", sc, err)
		}
	}
}

// TestShardedStress is the race-detector workout (run under make race-diff
// and the CI race-shard step): many short rounds, adversarial shard sizes
// (empty shards, one-node shards), heavy send and span traffic, and early
// finishers, across several seeds.
func TestShardedStress(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := graph.ConnectedGNP(n, 0.1, rng)
		var want *Result[int64]
		for _, sc := range []int{0, 1, 2, n, 3*n + 1, runtime.GOMAXPROCS(0)} {
			col := &obs.Collector{CollectRounds: true}
			cfg := probeConfig(g, sc, col)
			cfg.Seed = seed
			res, err := RunProgram(cfg, func(nd *Node) StepProgram[int64] {
				return &probeProg{rounds: 3 + nd.ID()%7}
			})
			if err != nil {
				t.Fatalf("seed=%d shards=%d: %v", seed, sc, err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(want.Outputs, res.Outputs) || want.Stats != res.Stats {
				t.Fatalf("seed=%d shards=%d: diverges from sequential", seed, sc)
			}
		}
	}
}

// TestShardedMillionNodes is the scale smoke: the sharded engine
// drives a million-node ring through the probe program with a fixed worker
// pool — goroutine count stays O(shards), never O(n) — and still matches
// the sequential sweep exactly.
func TestShardedMillionNodes(t *testing.T) {
	if os.Getenv("MEGA_SMOKE") == "" {
		t.Skip("million-node engine smoke: several minutes; run via make sweep-mega-smoke")
	}
	const n = 1_000_000
	g := graph.Cycle(n)
	baseline := runtime.NumGoroutine()
	var maxG atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if c := int64(runtime.NumGoroutine()); c > maxG.Load() {
					maxG.Store(c)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	prog := func(nd *Node) StepProgram[int64] {
		return &probeProg{rounds: 6 + nd.ID()%5}
	}
	want, err := RunProgram(probeConfig(g, 1, nil), prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunProgram(probeConfig(g, 8, nil), prog)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) || want.Stats != got.Stats {
		t.Fatal("sharded million-node run diverges from sequential")
	}
	if peak := maxG.Load(); peak > int64(baseline)+64 {
		t.Fatalf("goroutine count peaked at %d (baseline %d): the engine must not spawn per-node goroutines", peak, baseline)
	}
}

// TestNegativeShardsRejected pins the validation error.
func TestNegativeShardsRejected(t *testing.T) {
	_, err := runScript(Config{Graph: graph.Path(3), Shards: -2},
		func(nd *Node) (int, bool, error) { return 0, true, nil })
	if err == nil {
		t.Fatal("negative shard count accepted")
	}
}
