package congest

import (
	"context"
	"errors"
	"testing"
	"time"

	"powergraph/internal/graph"
)

// chatterProgram broadcasts every round and never finishes on its own: the
// run only ends via MaxRounds or cancellation, which is exactly what the
// cancellation tests need.
type chatterProgram struct{ out int }

func (p *chatterProgram) Step(nd *Node) (bool, error) {
	nd.BroadcastNeighbors(NewInt(int64(nd.Round() % 4)))
	return false, nil
}

func (p *chatterProgram) Output() int { return p.out }

// runChatter starts an endless run under the given config and returns its
// error (nil never happens: the program cannot terminate before MaxRounds).
func runChatter(cfg Config) error {
	_, err := RunProgram(cfg, func(nd *Node) StepProgram[int] { return &chatterProgram{} })
	return err
}

func cancelConfigs(g *graph.Graph) map[string]Config {
	return map[string]Config{
		"sequential": {Graph: g},
		"sharded":    {Graph: g, Shards: 4},
	}
}

// TestCancelPreCanceledContext: a context that is already done aborts the
// run at the first round barrier on every driver.
func TestCancelPreCanceledContext(t *testing.T) {
	g := graph.Cycle(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cfg := range cancelConfigs(g) {
		cfg.Ctx = ctx
		err := runChatter(cfg)
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want wrapped context.Canceled cause", name, err)
		}
	}
}

// TestCancelMidRun: a deadline expiring while the simulation is in flight
// aborts it cleanly — the run returns (instead of spinning to MaxRounds),
// the error wraps both ErrCanceled and the deadline cause, and no shard
// worker outlives RunProgram.
func TestCancelMidRun(t *testing.T) {
	g := graph.Cycle(64)
	for name, cfg := range cancelConfigs(g) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		cfg.Ctx = ctx
		cfg.MaxRounds = 1 << 30 // far beyond what 10ms allows: only the ctx can stop it
		start := time.Now()
		err := runChatter(cfg)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want ErrCanceled wrapping DeadlineExceeded", name, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("%s: run took %v after a 10ms deadline", name, elapsed)
		}
	}
}

// TestNilCtxUnchanged: the zero-config path (no context) still terminates
// via MaxRounds exactly as before.
func TestNilCtxUnchanged(t *testing.T) {
	g := graph.Path(4)
	err := runChatter(Config{Graph: g, MaxRounds: 50})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}
