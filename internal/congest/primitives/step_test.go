package primitives

import (
	"fmt"

	"powergraph/internal/congest"
)

// pipelineOut is the observable outcome of the composed primitive chain.
type pipelineOut struct {
	Leader    int
	Depth     int
	Gathered  int    // root's collected item count (0 elsewhere)
	FloodView string // every node's view of the flooded items
}

// stepPipeline chains the CONGEST step primitives: elect a leader, build
// its BFS tree, gather one item per node at the root, flood a derived item
// list back down.
type stepPipeline struct {
	stage  int
	minID  *StepMinIDLeader
	bfs    *StepBFSTree
	tree   Tree
	gather *StepGatherAtRoot
	flood  *StepFloodItemsFromRoot
	out    pipelineOut
}

func (p *stepPipeline) Step(nd *congest.Node) (bool, error) {
	n := nd.N()
	w := congest.IDBits(n)
	for {
		switch p.stage {
		case 0:
			if p.minID == nil {
				p.minID = NewStepMinIDLeader(nd)
			}
			if !p.minID.Step(nd) {
				return false, nil
			}
			p.out.Leader = p.minID.Leader()
			p.bfs = NewStepBFSTree(nd, p.out.Leader)
			p.stage = 1
		case 1:
			if !p.bfs.Step(nd) {
				return false, nil
			}
			p.tree = p.bfs.Tree()
			p.out.Depth = p.tree.Depth
			items := []congest.Message{congest.NewIntWidth(int64(nd.ID()), w)}
			p.gather = NewStepGatherAtRoot(nd, &p.tree, items)
			p.stage = 2
		case 2:
			if !p.gather.Step(nd) {
				return false, nil
			}
			gathered := p.gather.Collected()
			p.out.Gathered = len(gathered)
			var down []congest.Message
			if nd.ID() == p.out.Leader {
				sum := int64(0)
				for _, m := range gathered {
					sum += m.A
				}
				down = []congest.Message{congest.NewInt(sum), congest.NewIntWidth(int64(len(gathered)), w)}
			}
			p.flood = NewStepFloodItemsFromRoot(nd, &p.tree, down)
			p.stage = 3
		default:
			if !p.flood.Step(nd) {
				return false, nil
			}
			p.out.FloodView = fmt.Sprint(p.flood.Items())
			return true, nil
		}
	}
}

func (p *stepPipeline) Output() pipelineOut { return p.out }
