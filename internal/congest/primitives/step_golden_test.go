package primitives

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// The primitive-chain fixture pins the composed step primitives — the
// CONGEST chain (leader, BFS tree, gather, flood) and the clique chain
// (2-hop max, clique leader, status exchange, direct gather) — per node
// output and full simulator accounting, on topologies that stress every
// primitive. It was recorded while the step primitives still had blocking
// twins and equivalence tests proved every chain message-for-message equal
// to its blocking form, so the fixture is the blocking reference's output.
// Regenerate with:
//
//	go test ./internal/congest/primitives -run 'MatchBlocking' -update-golden
//
// but only from a commit whose outputs are known-good.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_step_primitives.json from the current implementation")

const primitivesGoldenPath = "testdata/golden_step_primitives.json"

// primitiveRecord is one chain run: every node's output plus the Stats.
type primitiveRecord struct {
	Outputs json.RawMessage `json:"outputs"`
	Stats   congest.Stats   `json:"stats"`
}

// runChain runs one chain program and returns its typed result plus the
// encoded record.
func runChain[T any](t *testing.T, cfg congest.Config, newProg func() congest.StepProgram[T]) (*congest.Result[T], primitiveRecord) {
	t.Helper()
	res, err := congest.RunProgram(cfg, func(*congest.Node) congest.StepProgram[T] { return newProg() })
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return res, primitiveRecord{Outputs: out, Stats: res.Stats}
}

// TestStepPrimitivesMatchBlocking holds the CONGEST chain to its recorded
// blocking-reference outputs and Stats across topologies that stress every
// primitive (deep trees, stars, random graphs).
func TestStepPrimitivesMatchBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path13": graph.Path(13),
		"star9":  graph.Star(9),
		"grid45": graph.Grid(4, 5),
		"gnp25":  graph.ConnectedGNP(25, 0.15, rng),
		"tree30": graph.RandomTree(30, rng),
	}
	got := make(map[string]primitiveRecord)
	for name, g := range graphs {
		res, rec := runChain(t, congest.Config{Graph: g, Seed: 4},
			func() congest.StepProgram[pipelineOut] { return &stepPipeline{} })
		got["pipeline|"+name] = rec
		// Sanity: the chain did real work — everyone agrees on leader 0,
		// and the root gathered one item per node.
		for v, out := range res.Outputs {
			if out.Leader != 0 {
				t.Fatalf("%s: node %d elected %d", name, v, out.Leader)
			}
			if v == 0 && out.Gathered != g.N() {
				t.Fatalf("%s: root gathered %d items, want %d", name, out.Gathered, g.N())
			}
		}
	}
	checkPrimitivesGolden(t, "pipeline|", got)
}

// TestStepCliquePrimitivesMatchBlocking holds the clique-model chain
// (StepTwoHopMax, StepCliqueLeader, StepStatusExchange, StepDirectGather) to
// its recorded blocking-reference outputs and Stats.
func TestStepCliquePrimitivesMatchBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := map[string]*graph.Graph{
		"single": graph.NewBuilder(1).Build(),
		"edge":   graph.Path(2),
		"path8":  graph.Path(8),
		"star10": graph.Star(10),
		"gnp20":  graph.ConnectedGNP(20, 0.2, rng),
	}
	got := make(map[string]primitiveRecord)
	for name, g := range graphs {
		res, rec := runChain(t, congest.Config{Graph: g, Model: congest.CongestedClique, Seed: 6},
			func() congest.StepProgram[cliqueOut] { return &stepCliqueChain{} })
		got["clique|"+name] = rec
		for v, out := range res.Outputs {
			if out.Leader != 0 {
				t.Fatalf("%s: node %d elected %d", name, v, out.Leader)
			}
		}
	}
	checkPrimitivesGolden(t, "clique|", got)
}

// checkPrimitivesGolden compares the records under prefix against the
// fixture, or (under -update-golden) rewrites just those records.
func checkPrimitivesGolden(t *testing.T, prefix string, got map[string]primitiveRecord) {
	t.Helper()
	want := make(map[string]primitiveRecord)
	raw, err := os.ReadFile(primitivesGoldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	case !*updateGolden:
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	if *updateGolden {
		for k := range want {
			if strings.HasPrefix(k, prefix) {
				delete(want, k)
			}
		}
		for k, rec := range got {
			want[k] = rec
		}
		writePrimitivesGolden(t, want)
		return
	}
	for key, w := range want {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from the current run", key)
			continue
		}
		if string(w.Outputs) != string(g.Outputs) || w.Stats != g.Stats {
			t.Errorf("%s: behavior drifted:\ngolden:  %s %+v\ncurrent: %s %+v", key, w.Outputs, w.Stats, g.Outputs, g.Stats)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}

// writePrimitivesGolden writes the fixture with one compact record per
// line, keys sorted, so diffs stay one line per chain run.
func writePrimitivesGolden(t *testing.T, recs map[string]primitiveRecord) {
	t.Helper()
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := json.Marshal(recs[k])
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("  " + string(kb) + ": " + string(rec))
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(primitivesGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(primitivesGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
