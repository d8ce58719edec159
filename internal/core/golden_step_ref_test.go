package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/graph"
)

// The step-reference fixture pins every distributed algorithm on the wide
// instance set the step-program migration was proven on: solutions, Phase-I
// sizes, MDS fallback joins, and the full simulator accounting per
// (algorithm, graph, ε) cell. The golden r = 2 / r = 3, 4 matrices cover five
// mid-sized graphs; this one adds the degenerate and structured shapes
// (single node, one edge, paths, stars, cycles, grids, caterpillars, trees,
// zero-weight vertices) at ε ∈ {1, 0.5, 0.25}.
//
// The fixture was recorded while every algorithm still had its original
// blocking handler beside the step program and equivalence tests proved the
// two message-for-message equal on every cell, so each record is the
// blocking reference's output; the TestStep*MatchesBlockingReference tests
// hold the step programs to it. Regenerate with:
//
//	go test ./internal/core/ -run MatchesBlockingReference -update-golden
//
// but only from a commit whose outputs are known-good.

// stepRefRecord is one cell of the step-reference matrix.
type stepRefRecord struct {
	Solution      []int         `json:"solution"`
	PhaseISize    int           `json:"phaseISize"`
	FallbackJoins int           `json:"fallbackJoins"`
	Stats         congest.Stats `json:"stats"`
}

// stepRefCase is one (algorithm, graph, parameters) cell.
type stepRefCase struct {
	key string
	run func() (*Result, error)
}

// weighted returns g with seeded random weights in [1, maxW], so the
// weighted algorithms' class machinery is exercised beyond the all-ones
// case.
func weighted(g *graph.Graph, maxW int64, seed int64) *graph.Graph {
	return graph.WithRandomWeights(g, maxW, rand.New(rand.NewSource(seed)))
}

// namedGraph keeps an instance's fixture name next to the graph, in the
// order the instances were built (the random ones share one stream).
type namedGraph struct {
	name string
	g    *graph.Graph
}

// epsCases builds one algorithm's cells: every graph at ε ∈ {1, 0.5, 0.25},
// seed 7.
func epsCases(alg string, graphs []namedGraph, run func(g *graph.Graph, eps float64, opts *Options) (*Result, error)) []stepRefCase {
	var cases []stepRefCase
	for _, ng := range graphs {
		for _, eps := range []float64{1, 0.5, 0.25} {
			g := ng.g
			cases = append(cases, stepRefCase{
				key: fmt.Sprintf("%s|%s|eps%v", alg, ng.name, eps),
				run: func() (*Result, error) { return run(g, eps, &Options{Seed: 7}) },
			})
		}
	}
	return cases
}

func TestStepMVCMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkStepRef(t, "mvc-congest|", epsCases("mvc-congest", []namedGraph{
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path9", graph.Path(9)},
		{"star12", graph.Star(12)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x5", graph.Grid(4, 5)},
		{"cat5x4", graph.Caterpillar(5, 4)},
		{"gnp30", graph.ConnectedGNP(30, 0.12, rng)},
		{"gnp45", graph.ConnectedGNP(45, 0.08, rng)},
		{"tree40", graph.RandomTree(40, rng)},
	}, ApproxMVCCongest))
}

func TestStepMVCRandMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checkStepRef(t, "mvc-congest-rand|", epsCases("mvc-congest-rand", []namedGraph{
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path9", graph.Path(9)},
		{"star16", graph.Star(16)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x5", graph.Grid(4, 5)},
		{"gnp30", graph.ConnectedGNP(30, 0.2, rng)},
		{"tree35", graph.RandomTree(35, rng)},
	}, ApproxMVCCongestRandomized))
}

func TestStepCliqueDetMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checkStepRef(t, "mvc-clique-det|", epsCases("mvc-clique-det", []namedGraph{
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path9", graph.Path(9)},
		{"star12", graph.Star(12)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x5", graph.Grid(4, 5)},
		{"gnp30", graph.ConnectedGNP(30, 0.12, rng)},
		{"tree35", graph.RandomTree(35, rng)},
	}, ApproxMVCCliqueDeterministic))
}

func TestStepCliqueRandMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checkStepRef(t, "mvc-clique-rand|", epsCases("mvc-clique-rand", []namedGraph{
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path9", graph.Path(9)},
		{"star16", graph.Star(16)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x5", graph.Grid(4, 5)},
		{"gnp30", graph.ConnectedGNP(30, 0.2, rng)},
		{"tree35", graph.RandomTree(35, rng)},
	}, ApproxMVCCliqueRandomized))
}

func TestStepMWVCMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// A path with zero-weight interior vertices exercises the pre-covered
	// fast path of Section 3.2.
	zb := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		zb.AddEdge(i, i+1)
	}
	zb.SetWeight(1, 0)
	zb.SetWeight(4, 0)
	checkStepRef(t, "mwvc-congest|", epsCases("mwvc-congest", []namedGraph{
		{"zeroes", zb.Build()},
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path9w", weighted(graph.Path(9), 12, 1)},
		{"star12w", weighted(graph.Star(12), 30, 2)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x5w", weighted(graph.Grid(4, 5), 9, 3)},
		{"gnp30w", weighted(graph.ConnectedGNP(30, 0.12, rng), 25, 4)},
		{"tree35w", weighted(graph.RandomTree(35, rng), 7, 5)},
	}, ApproxMWVCCongest))
}

func TestStepMDSMatchesBlockingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var cases []stepRefCase
	for _, ng := range []namedGraph{
		{"single", graph.NewBuilder(1).Build()},
		{"edge", graph.Path(2)},
		{"path7", graph.Path(7)},
		{"star9", graph.Star(9)},
		{"grid34", graph.Grid(3, 4)},
		{"gnp16", graph.ConnectedGNP(16, 0.25, rng)},
		{"tree14", graph.RandomTree(14, rng)},
	} {
		g := ng.g
		cases = append(cases, stepRefCase{
			key: fmt.Sprintf("mds-congest|%s|samples1|phases1", ng.name),
			run: func() (*Result, error) {
				return ApproxMDSCongest(g, &MDSOptions{Options: Options{Seed: 7}, SampleFactor: 1, PhaseFactor: 1})
			},
		})
	}
	// Default estimator parameters on one small instance.
	gDefaults := graph.ConnectedGNP(10, 0.3, rng)
	cases = append(cases, stepRefCase{
		key: "mds-congest|gnp10|defaults|seed3",
		run: func() (*Result, error) {
			return ApproxMDSCongest(gDefaults, &MDSOptions{Options: Options{Seed: 3}})
		},
	})
	checkStepRef(t, "mds-congest|", cases)
}

const stepRefPath = "testdata/golden_step_ref.json"

// checkStepRef runs cases (every key starts with prefix) and compares them
// against the fixture's records under prefix, or rewrites just those
// records under -update-golden.
func checkStepRef(t *testing.T, prefix string, cases []stepRefCase) {
	t.Helper()
	got := make(map[string]stepRefRecord)
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if _, dup := got[c.key]; dup {
			t.Fatalf("duplicate case key %s", c.key)
		}
		got[c.key] = stepRefRecord{
			Solution:      res.Solution.Elements(),
			PhaseISize:    res.PhaseISize,
			FallbackJoins: res.FallbackJoins,
			Stats:         res.Stats,
		}
	}
	want := make(map[string]stepRefRecord)
	raw, err := os.ReadFile(stepRefPath)
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
		if err := os.WriteFile(stepRefPath, encodeLinePerKey(t, want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, w := range want {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
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

// encodeLinePerKey renders a map as a JSON object with one compact record
// per line, keys sorted, so fixture diffs stay one line per cell.
func encodeLinePerKey[V any](t *testing.T, m map[string]V) []byte {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := json.Marshal(m[k])
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("  ")
		buf.Write(kb)
		buf.WriteString(": ")
		buf.Write(vb)
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}
