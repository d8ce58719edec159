package congest

import (
	"fmt"
	"testing"

	"powergraph/internal/graph"
)

// BenchmarkEngineModes prices the engine on the simulator's canonical hot
// loop: R rounds of full neighbor exchange by a step program. This isolates
// engine overhead — stepping, outbox/inbox management, delivery — from
// algorithm-local work. Run it with `make bench-engine`.
func BenchmarkEngineModes(b *testing.B) {
	const rounds = 50
	for _, n := range []int{256, 1024, 2048} {
		g := graph.ConnectedGNP(n, 8/float64(n), newRand(1))
		w := IDBits(n)
		b.Run(fmt.Sprintf("n=%d/program", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runExchange(Config{Graph: g}, rounds, w); err != nil {
					b.Fatal(err)
				}
			}
			reportNodeRounds(b, n, rounds)
		})
	}
}

func reportNodeRounds(b *testing.B, n, rounds int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*rounds), "ns/node-round")
}

// exchangeProgram is the benchmark workload: every node broadcasts its id
// for rounds rounds and counts what arrives.
type exchangeProgram struct {
	rounds int
	width  int
	sum    int
}

func (p *exchangeProgram) Step(nd *Node) (bool, error) {
	if nd.Round() > 0 {
		p.sum += len(nd.Recv())
	}
	if nd.Round() == p.rounds {
		return true, nil
	}
	nd.Broadcast(NewIntWidth(int64(nd.ID()), p.width))
	return false, nil
}

func (p *exchangeProgram) Output() int { return p.sum }

// runExchange runs exchangeProgram under cfg.
func runExchange(cfg Config, rounds, width int) (*Result[int], error) {
	return RunProgram(cfg, func(*Node) StepProgram[int] { return &exchangeProgram{rounds: rounds, width: width} })
}
