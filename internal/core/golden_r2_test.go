package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powergraph/internal/graph"
)

// The golden r = 2 seed matrix pins the exact pre-generalization behavior of
// every distributed algorithm: solutions, phase statistics, and the full
// simulator accounting. The Gʳ generalization must leave the r = 2 path
// bit-identical — same messages, same rounds, same solutions — so this test
// is the refactoring guard that compares new code against old.
//
// The matrix runs under the default kernelize-then-solve leader solver (the
// "kernel-exact" localSolver). Every golden instance is smaller than
// kernel.DirectN, so the ladder's direct rung solves it with the
// exact branch and bound verbatim.
//
// Regenerate with:
//
//	go test ./internal/core/ -run TestGoldenR2Regression -update-golden
//
// but only ever from a commit whose r = 2 outputs are known-good, and only
// when behavior legitimately changes. If a future kernel change makes the
// ladder return a *different optimal* cover on these instances (tie-breaks
// among equal-cost optima), the right fix is to regenerate with the flag and
// say so in the commit — cost drift, by contrast, is always a bug.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_r2.json and testdata/golden_r34.json from the current implementation")

// goldenRecord is one cell of the seed matrix: everything observable about a
// run that must survive the Gʳ generalization unchanged.
type goldenRecord struct {
	Solution      []int `json:"solution"`
	PhaseISize    int   `json:"phaseISize"`
	FallbackJoins int   `json:"fallbackJoins"`
	Rounds        int   `json:"rounds"`
	Messages      int64 `json:"messages"`
	TotalBits     int64 `json:"totalBits"`
	MaxRoundBits  int64 `json:"maxRoundBits"`
	Bandwidth     int   `json:"bandwidth"`
}

// goldenGraphs builds the deterministic instance set of the seed matrix.
// Weighted variants exercise Theorem 7's weight reports.
func goldenGraphs() map[string]*graph.Graph {
	gnp16 := graph.ConnectedGNP(16, 0.25, rand.New(rand.NewSource(41)))
	gnp24 := graph.ConnectedGNP(24, 8.0/24, rand.New(rand.NewSource(42)))
	wgnp16 := graph.WithRandomWeights(
		graph.ConnectedGNP(16, 0.25, rand.New(rand.NewSource(43))), 9,
		rand.New(rand.NewSource(44)))
	return map[string]*graph.Graph{
		"gnp16":  gnp16,
		"gnp24":  gnp24,
		"wgnp16": wgnp16,
		"cat":    graph.Caterpillar(5, 3),
		"grid":   graph.Grid(4, 5),
	}
}

// goldenAlgorithms maps registry-style names to direct invocations, each run
// with a fixed seed.
var goldenAlgorithms = map[string]func(g *graph.Graph, opts *Options) (*Result, error){
	"mvc-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongest(g, 0.5, opts)
	},
	"mvc-congest-eps4": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongest(g, 0.25, opts)
	},
	"mvc-congest-rand": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCongestRandomized(g, 0.5, opts)
	},
	"mwvc-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMWVCCongest(g, 0.5, opts)
	},
	"mvc-clique-det": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCliqueDeterministic(g, 0.5, opts)
	},
	"mvc-clique-rand": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMVCCliqueRandomized(g, 0.5, opts)
	},
	"mds-congest": func(g *graph.Graph, opts *Options) (*Result, error) {
		return ApproxMDSCongest(g, &MDSOptions{Options: *opts})
	},
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden_r2.json")
}

func goldenRecordOf(res *Result) goldenRecord {
	return goldenRecord{
		Solution:      res.Solution.Elements(),
		PhaseISize:    res.PhaseISize,
		FallbackJoins: res.FallbackJoins,
		Rounds:        res.Stats.Rounds,
		Messages:      res.Stats.Messages,
		TotalBits:     res.Stats.TotalBits,
		MaxRoundBits:  res.Stats.MaxRoundBits,
		Bandwidth:     res.Stats.Bandwidth,
	}
}

// TestGoldenR2Regression runs the whole seed matrix and compares every
// record against testdata/golden_r2.json.
func TestGoldenR2Regression(t *testing.T) {
	got := runGoldenMatrix(t, 0, func(aName, gName string) string {
		return fmt.Sprintf("%s|%s|seed7", aName, gName)
	})
	checkGolden(t, goldenPath(t), got)
}

// TestGoldenR34Regression pins the same matrix at r = 3 and r = 4 against
// testdata/golden_r34.json. Those powers take the paths the r = 2 fixture
// never reaches — the routed exact vote flood of Theorem 28, the sparsified
// Phase-II gather — so refactors of their per-phase state are guarded the
// same way. Regenerate with the same -update-golden flag.
func TestGoldenR34Regression(t *testing.T) {
	got := make(map[string]goldenRecord)
	for _, r := range []int{3, 4} {
		for key, rec := range runGoldenMatrix(t, r, func(aName, gName string) string {
			return fmt.Sprintf("%s|%s|r%d|seed7", aName, gName, r)
		}) {
			got[key] = rec
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_r34.json"), got)
}

// runGoldenMatrix runs every golden algorithm on every golden graph at power
// r (0 = the default r = 2) and returns the records keyed by key.
func runGoldenMatrix(t *testing.T, r int, key func(aName, gName string) string) map[string]goldenRecord {
	t.Helper()
	graphs := goldenGraphs()
	got := make(map[string]goldenRecord)
	for gName, g := range graphs {
		for aName, run := range goldenAlgorithms {
			key := key(aName, gName)
			res, err := run(g, &Options{Seed: 7, Power: r})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = goldenRecordOf(res)
		}
	}
	return got
}

// checkGolden compares got against the fixture at path, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, path string, got map[string]goldenRecord) {
	t.Helper()
	if *updateGolden {
		// json.Marshal sorts map keys, so the file is stable across runs.
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d records, matrix produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from the current matrix", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: behavior drifted:\ngolden:  %+v\ncurrent: %+v", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}
