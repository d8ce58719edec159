package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"powergraph/internal/bitset"
	"powergraph/internal/graph"
	"powergraph/internal/verify"
)

// The large-instance golden pins kernel.Solver's vertex-cover report and
// cover on instances whose working rows span many 64-bit words: the
// oracle-scale squares and cubes of a weighted 20 000-vertex random tree and
// caterpillar, and squares of G(n, c/n) at n = 500 and 2000.
// vc_search_golden.json stops at n = 160, where a row is at most three
// words, so it cannot see a row representation that only goes wrong across
// many words. Covers are pinned by the SHA-256 of their sorted ids.
//
// Regenerate with:
//
//	go test ./internal/kernel/ -run TestVCLargeGolden -update-golden
//
// but only from a commit whose kernel behavior is known-good, and only
// when that behavior legitimately changes.

const vcLargeGoldenPath = "testdata/vc_large_golden.json"

// vcLargeGNPBudget is the search budget of the G(n, c/n) instances: their
// kernels can be too hard for an unbounded search, so they pin the
// budgeted ladder (fallback included) instead.
const vcLargeGNPBudget = 20_000

// largeInstance is one pinned instance and the search budget it is solved
// under (-1: unlimited, the oracle's configuration).
type largeInstance struct {
	g        *graph.Graph
	maxNodes int64
}

// vcLargeRecord is what the golden pins for one instance.
type vcLargeRecord struct {
	N         int    `json:"n"`
	M         int    `json:"m"`
	MaxNodes  int64  `json:"maxNodes"`
	Report    Report `json:"report"`
	CoverSize int    `json:"coverSize"`
	CoverHash string `json:"coverHash"`
}

// vcLargeCorpus builds the pinned instances.
func vcLargeCorpus() map[string]largeInstance {
	out := make(map[string]largeInstance)
	tree := graph.WithRandomWeights(graph.RandomTree(20000, rand.New(rand.NewSource(11))), 40, rand.New(rand.NewSource(12)))
	cat := graph.WithRandomWeights(graph.Caterpillar(5000, 3), 40, rand.New(rand.NewSource(13)))
	for _, r := range []int{2, 3} {
		out[fmt.Sprintf("wtree-n20000-r%d", r)] = largeInstance{tree.Power(r), -1}
		out[fmt.Sprintf("wcaterpillar-5000x3-r%d", r)] = largeInstance{cat.Power(r), -1}
	}
	for _, n := range []int{500, 2000} {
		for _, c := range []float64{1.5, 3} {
			seed := int64(n) + int64(10*c)
			g := graph.ConnectedGNP(n, c/float64(n), rand.New(rand.NewSource(seed)))
			out[fmt.Sprintf("gnp-n%d-c%g", n, c)] = largeInstance{g.Square(), vcLargeGNPBudget}
			wg := graph.WithRandomWeights(g, 40, rand.New(rand.NewSource(seed+1)))
			out[fmt.Sprintf("wgnp-n%d-c%g", n, c)] = largeInstance{wg.Square(), vcLargeGNPBudget}
		}
	}
	return out
}

// coverHash is the SHA-256 of the cover's ids in increasing order, one
// decimal id per line.
func coverHash(cover *bitset.Set) string {
	h := sha256.New()
	var buf []byte
	cover.ForEach(func(v int) bool {
		buf = strconv.AppendInt(buf[:0], int64(v), 10)
		buf = append(buf, '\n')
		h.Write(buf)
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestVCLargeGolden replays the Solver on the large corpus and compares
// against testdata/vc_large_golden.json.
func TestVCLargeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("large-instance golden skipped in -short mode")
	}
	got := make(map[string]vcLargeRecord)
	for name, inst := range vcLargeCorpus() {
		cover, rep := NewSolver(Config{MaxNodes: inst.maxNodes}).VertexCover(inst.g)
		if ok, w := verify.IsVertexCover(inst.g, cover); !ok {
			t.Errorf("%s: solver returned a non-cover (edge %v uncovered)", name, w)
		}
		got[name] = vcLargeRecord{
			N: inst.g.N(), M: inst.g.M(), MaxNodes: inst.maxNodes,
			Report: rep, CoverSize: cover.Count(), CoverHash: coverHash(cover),
		}
	}

	if *updateGolden {
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(vcLargeGoldenPath, append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), vcLargeGoldenPath)
		return
	}

	raw, err := os.ReadFile(vcLargeGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden from a known-good commit): %v", err)
	}
	var want map[string]vcLargeRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var cur map[string]vcLargeRecord
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
			t.Errorf("%s: solver behavior drifted:\ngolden:  %s\ncurrent: %s", key, wj, gj)
		}
	}
	for key := range cur {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update-golden)", key)
		}
	}
}
