package congest_test

import (
	"fmt"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// sumProgram broadcasts the node's id in round 0 and, one round later, sums
// the ids that arrived.
type sumProgram struct{ sum int }

func (p *sumProgram) Step(nd *congest.Node) (bool, error) {
	if nd.Round() == 0 {
		nd.Broadcast(congest.NewIntWidth(int64(nd.ID()), congest.IDBits(nd.N())))
		return false, nil
	}
	for _, in := range nd.Recv() {
		p.sum += int(in.Msg.A)
	}
	return true, nil
}

func (p *sumProgram) Output() int { return p.sum }

// Example runs a one-round neighbor id exchange on a 4-cycle: every node
// broadcasts its id, returns from Step (the round barrier), and counts what
// arrived in the next round.
func Example() {
	g := graph.Cycle(4)
	res, err := congest.RunProgram(congest.Config{Graph: g}, func(nd *congest.Node) congest.StepProgram[int] {
		return &sumProgram{}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Stats.Rounds)
	fmt.Println("messages:", res.Stats.Messages)
	fmt.Println("node 0 neighbor-id sum:", res.Outputs[0])
	// Output:
	// rounds: 1
	// messages: 8
	// node 0 neighbor-id sum: 4
}

// minProgram is a step-structured node program: Step runs once per round as
// a plain function call (no goroutine per node). It floods the minimum id
// for n rounds.
type minProgram struct {
	best   int64
	rounds int
}

func (p *minProgram) Step(nd *congest.Node) (bool, error) {
	for _, in := range nd.Recv() {
		if v := in.Msg.A; v < p.best {
			p.best = v
		}
	}
	if p.rounds == nd.N() {
		return true, nil
	}
	nd.BroadcastNeighbors(congest.NewIntWidth(p.best, congest.IDBits(nd.N())))
	p.rounds++
	return false, nil
}

func (p *minProgram) Output() int64 { return p.best }

// ExampleRunProgram elects a leader (the minimum id) with a step program.
func ExampleRunProgram() {
	g := graph.Path(5)
	cfg := congest.Config{Graph: g}
	res, err := congest.RunProgram(cfg, func(nd *congest.Node) congest.StepProgram[int64] {
		return &minProgram{best: int64(nd.ID())}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("every node agrees on leader:", res.Outputs[0], res.Outputs[4])
	fmt.Println("rounds:", res.Stats.Rounds)
	// Output:
	// every node agrees on leader: 0 0
	// rounds: 5
}
