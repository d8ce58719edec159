package kernel

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// The search golden pins what the cover-level fixtures elsewhere do not:
// the exact branch-and-bound node counts of exact.VertexCoverBounded, where
// a budget trips, and which best-so-far cover an interrupted search pays
// out, plus the kernel.Solver report and cover at the default and at a
// 200-node budget. Any change to the search machinery (scratch reuse,
// bounds, reductions) must leave every record byte-identical; a changed
// visit order shows up here first. The "split" and "splitTrip" keys name
// the search by its component splitting.
//
// Regenerate with:
//
//	go test ./internal/kernel/ -run TestVCSearchGolden -update-golden
//
// but only from a commit whose search behavior is known-good, and only when
// that behavior legitimately changes.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/vc_search_golden.json from the current implementation")

const vcSearchGoldenPath = "testdata/vc_search_golden.json"

// vcSearchMaxUnboundedN caps the instances the unbounded search and the
// default Solver run on; the n = 160 instances pin only budgeted calls.
const vcSearchMaxUnboundedN = 120

// vcSearchBigBudget is the tripping budget used where no unbounded node
// count is available to halve (the n = 160 instances).
const vcSearchBigBudget = 1000

// searchRun is one unbounded search call.
type searchRun struct {
	Cover string `json:"cover"`
	Nodes int64  `json:"nodes"`
}

// tripRun is one budgeted call: the budget, the error it returned, the
// cover it returned (the best-so-far cover after a trip) and the node count
// at the trip.
type tripRun struct {
	Budget int64  `json:"budget"`
	Err    string `json:"err,omitempty"`
	Cover  string `json:"cover,omitempty"`
	Nodes  int64  `json:"nodes,omitempty"`
}

// solverRun is one Solver call: the report (its wall-clock fields are not
// serialized, so the JSON round trip drops them) and the cover.
type solverRun struct {
	Report Report `json:"report"`
	Cover  string `json:"cover"`
}

// vcSearchRecord is everything the golden pins for one instance. Calls
// that are skipped for the instance's size stay nil.
type vcSearchRecord struct {
	N           int        `json:"n"`
	M           int        `json:"m"`
	Split       *searchRun `json:"split,omitempty"`
	SplitTrip   tripRun    `json:"splitTrip"`
	Solver      *solverRun `json:"solver,omitempty"`
	SolverSmall solverRun  `json:"solver200"`
}

// vcSearchCorpus builds the pinned instances: squares of connected G(n, c/n)
// for n ∈ {40, 80, 120, 160} and c ∈ {2, 3, 4}, unweighted and with weights
// in [1, 40], plus the squares of one random tree and one caterpillar. The
// sizes 63, 64, 65, 127, 128 and 129 put the last vertex on either side of
// a 64-bit word boundary, so a word-level walk that mishandles bit 63 or a
// row's last, partial word changes a record.
func vcSearchCorpus() map[string]*graph.Graph {
	out := make(map[string]*graph.Graph)
	for _, n := range []int{40, 63, 64, 65, 80, 120, 127, 128, 129, 160} {
		for _, c := range []int{2, 3, 4} {
			seed := int64(1000*c + n)
			g := graph.ConnectedGNP(n, float64(c)/float64(n), rand.New(rand.NewSource(seed)))
			out[fmt.Sprintf("gnp-n%d-c%d", n, c)] = g.Square()
			wg := graph.WithRandomWeights(g, 40, rand.New(rand.NewSource(seed+1)))
			out[fmt.Sprintf("wgnp-n%d-c%d", n, c)] = wg.Square()
		}
	}
	out["tree-n120"] = graph.RandomTree(120, rand.New(rand.NewSource(5))).Square()
	out["caterpillar-30x3"] = graph.Caterpillar(30, 3).Square()
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runSolver(cfg Config, g *graph.Graph) solverRun {
	cover, rep := NewSolver(cfg).VertexCover(g)
	return solverRun{Report: rep, Cover: cover.String()}
}

// vcSearchRecordOf runs every pinned call on g.
func vcSearchRecordOf(t *testing.T, g *graph.Graph) vcSearchRecord {
	t.Helper()
	rec := vcSearchRecord{N: g.N(), M: g.M()}
	budget := int64(vcSearchBigBudget)
	if g.N() <= vcSearchMaxUnboundedN {
		cover, nodes, err := exact.VertexCoverBounded(g, 0, nil)
		if err != nil {
			t.Fatalf("unbounded search: %v", err)
		}
		rec.Split = &searchRun{Cover: cover.String(), Nodes: nodes}
		budget = max(nodes/2, 1)
		s := runSolver(Config{}, g)
		rec.Solver = &s
	}

	cover, nodes, err := exact.VertexCoverBounded(g, budget, nil)
	rec.SplitTrip = tripRun{Budget: budget, Err: errString(err), Cover: cover.String(), Nodes: nodes}
	rec.SolverSmall = runSolver(Config{MaxNodes: 200}, g)
	return rec
}

// TestVCSearchGolden replays every pinned call on the corpus and
// compares against testdata/vc_search_golden.json.
func TestVCSearchGolden(t *testing.T) {
	got := make(map[string]vcSearchRecord)
	for name, g := range vcSearchCorpus() {
		got[name] = vcSearchRecordOf(t, g)
	}

	if *updateGolden {
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(vcSearchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(vcSearchGoldenPath, append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), vcSearchGoldenPath)
		return
	}

	raw, err := os.ReadFile(vcSearchGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	var want map[string]vcSearchRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the fresh records through JSON so the comparison sees
	// exactly what the fixture can hold.
	payload, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var cur map[string]vcSearchRecord
	if err := json.Unmarshal(payload, &cur); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := cur[key]
		if !ok {
			t.Errorf("%s: missing from the current corpus", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s: search behavior drifted:\ngolden:  %s\ncurrent: %s", key, wj, gj)
		}
	}
	for key := range cur {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}
