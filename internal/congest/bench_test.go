package congest

import (
	"fmt"
	"testing"

	"powergraph/internal/graph"
)

// BenchmarkEngineModes prices the engine on the simulator's canonical hot
// loops, R rounds each, isolating engine overhead — stepping, outboxes,
// delivery — from algorithm-local work:
//
//   - program: full neighbor exchange (every node broadcasts to its
//     G-neighbors every round) on G(n, 8/n);
//   - clique: every node broadcasts to all n−1 others (CONGESTED CLIQUE),
//     so a node-round delivers n−1 messages; the round is broadcast-only,
//     so its inbox holds one entry per node and each node's Recv copies
//     the n−1 others' into a reused buffer;
//   - quiet: every node steps and sends nothing — the per-node-step floor.
//   - idle: every node broadcasts in every tenth round and promises the
//     nine rounds between as idle (Node.Idle), so the engine skips them;
//     its figure is still per nominal node-round.
//
// Run it with `make bench-engine`.
func BenchmarkEngineModes(b *testing.B) {
	const rounds = 50
	for _, n := range []int{256, 1024, 2048} {
		g := graph.ConnectedGNP(n, 8/float64(n), newRand(1))
		w := IDBits(n)
		exchange := func(quiet bool) func(*Node) StepProgram[int] {
			return func(*Node) StepProgram[int] { return &exchangeProgram{rounds: rounds, width: w, quiet: quiet} }
		}
		modes := []struct {
			name string
			cfg  Config
			prog func(*Node) StepProgram[int]
		}{
			{"program", Config{Graph: g}, exchange(false)},
			{"clique", Config{Graph: g, Model: CongestedClique}, exchange(false)},
			{"quiet", Config{Graph: g}, exchange(true)},
			{"idle", Config{Graph: g}, func(*Node) StepProgram[int] {
				return &idleExchangeProgram{rounds: rounds, width: w, period: 10}
			}},
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("n=%d/%s", n, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunProgram(m.cfg, m.prog); err != nil {
						b.Fatal(err)
					}
				}
				reportNodeRounds(b, n, rounds)
			})
		}
	}
}

func reportNodeRounds(b *testing.B, n, rounds int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*rounds), "ns/node-round")
}

// exchangeProgram is the benchmark workload: every node broadcasts its id
// (unless quiet) for rounds rounds and counts what arrives.
type exchangeProgram struct {
	rounds int
	width  int
	quiet  bool
	sum    int
}

func (p *exchangeProgram) Step(nd *Node) (bool, error) {
	if nd.Round() > 0 {
		p.sum += len(nd.Recv())
	}
	if nd.Round() == p.rounds {
		return true, nil
	}
	if p.quiet {
		return false, nil
	}
	nd.Broadcast(NewIntWidth(int64(nd.ID()), p.width))
	return false, nil
}

func (p *exchangeProgram) Output() int { return p.sum }

// runExchange runs exchangeProgram under cfg.
func runExchange(cfg Config, rounds, width int, quiet bool) (*Result[int], error) {
	return RunProgram(cfg, func(*Node) StepProgram[int] {
		return &exchangeProgram{rounds: rounds, width: width, quiet: quiet}
	})
}

// idleExchangeProgram broadcasts its id in every period-th round and
// promises the rounds between as idle; its state depends on the round
// number only, so Skip has nothing to advance.
type idleExchangeProgram struct {
	rounds, width, period int
	sum                   int
}

func (p *idleExchangeProgram) Step(nd *Node) (bool, error) {
	r := nd.Round()
	p.sum += len(nd.Recv())
	if r == p.rounds {
		return true, nil
	}
	if r%p.period == 0 {
		nd.BroadcastNeighbors(NewIntWidth(int64(nd.ID()), p.width))
	}
	nd.Idle(min((r/p.period+1)*p.period, p.rounds) - r - 1)
	return false, nil
}

func (p *idleExchangeProgram) Skip(*Node, int) {}

func (p *idleExchangeProgram) Output() int { return p.sum }
