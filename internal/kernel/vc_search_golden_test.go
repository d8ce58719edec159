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

	"powergraph/internal/bitset"
	"powergraph/internal/exact"
	"powergraph/internal/graph"
)

// The search golden pins what the cover-level fixtures elsewhere do not:
// the exact branch-and-bound node counts, where a budget trips, and which
// best-so-far cover an interrupted split search pays out. Any change to the
// search machinery (scratch reuse, bounds, reductions) must leave every
// record byte-identical; a changed visit order shows up here first.
//
// Regenerate with:
//
//	go test ./internal/kernel/ -run TestVCSearchGolden -update-golden
//
// but only from a commit whose search behavior is known-good, and only when
// that behavior legitimately changes.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/vc_search_golden.json from the current implementation")

const vcSearchGoldenPath = "testdata/vc_search_golden.json"

// vcSearchMaxUnboundedN caps the instances the unbounded entry points run
// on: above it the legacy search on raw squares takes seconds to minutes,
// so the n = 160 instances exercise only the budgeted entry points.
const vcSearchMaxUnboundedN = 120

// vcSearchBigBudget is the tripping budget used where no unbounded node
// count is available to halve (the n = 160 instances).
const vcSearchBigBudget = 1000

// searchRun is one call of a counted entry point.
type searchRun struct {
	Cover string `json:"cover"`
	Nodes int64  `json:"nodes"`
}

// tripRun is one budgeted call: the budget, the error it returned, and (on
// the split path) the best-so-far cover and the node count at the trip.
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

// vcSearchRecord is everything the golden pins for one instance. Entry
// points that are skipped for the instance's size stay nil.
type vcSearchRecord struct {
	N           int        `json:"n"`
	M           int        `json:"m"`
	Legacy      *searchRun `json:"legacy,omitempty"`
	LegacyTrip  tripRun    `json:"legacyTrip"`
	Split       *searchRun `json:"split,omitempty"`
	SplitTrip   tripRun    `json:"splitTrip"`
	Solver      *solverRun `json:"solver,omitempty"`
	SolverSmall solverRun  `json:"solver200"`
}

// vcSearchCorpus builds the pinned instances: squares of connected G(n, c/n)
// for n ∈ {40, 80, 120, 160} and c ∈ {2, 3, 4}, unweighted and with weights
// in [1, 40], plus the squares of one random tree and one caterpillar.
func vcSearchCorpus() map[string]*graph.Graph {
	out := make(map[string]*graph.Graph)
	for _, n := range []int{40, 80, 120, 160} {
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

// coverString renders a cover compactly ("{0 3 7}"); a nil cover (the
// legacy bounded search after a trip) renders empty.
func coverString(s *bitset.Set) string {
	if s == nil {
		return ""
	}
	return s.String()
}

func runSolver(cfg Config, g *graph.Graph) solverRun {
	cover, rep := NewSolver(cfg).VertexCover(g)
	return solverRun{Report: rep, Cover: coverString(cover)}
}

// vcSearchRecordOf runs every pinned entry point on g.
func vcSearchRecordOf(t *testing.T, g *graph.Graph) vcSearchRecord {
	t.Helper()
	rec := vcSearchRecord{N: g.N(), M: g.M()}
	legacyBudget, splitBudget := int64(vcSearchBigBudget), int64(vcSearchBigBudget)
	if g.N() <= vcSearchMaxUnboundedN {
		cover, nodes := exact.VertexCoverCounted(g)
		rec.Legacy = &searchRun{Cover: coverString(cover), Nodes: nodes}
		legacyBudget = nodes / 2
		cover, nodes, err := exact.VertexCoverBoundedSplitCounted(g, 0, nil)
		if err != nil {
			t.Fatalf("unbounded split search: %v", err)
		}
		rec.Split = &searchRun{Cover: coverString(cover), Nodes: nodes}
		splitBudget = nodes / 2
		s := runSolver(Config{}, g)
		rec.Solver = &s
	}
	legacyBudget, splitBudget = max(legacyBudget, 1), max(splitBudget, 1)

	cover, err := exact.VertexCoverBounded(g, legacyBudget)
	rec.LegacyTrip = tripRun{Budget: legacyBudget, Err: errString(err), Cover: coverString(cover)}
	cover, nodes, err := exact.VertexCoverBoundedSplitCounted(g, splitBudget, nil)
	rec.SplitTrip = tripRun{Budget: splitBudget, Err: errString(err), Cover: coverString(cover), Nodes: nodes}
	rec.SolverSmall = runSolver(Config{MaxNodes: 200}, g)
	return rec
}

// TestVCSearchGolden replays every pinned entry point on the corpus and
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
