package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSpec() *Spec {
	return &Spec{
		Name:     "t",
		RootSeed: 7,
		Trials:   2,
		Generators: []GeneratorSpec{
			{Name: "path"},
			{Name: "connected-gnp"},
			{Name: "random-tree"},
		},
		Sizes:      []int{12, 16},
		Algorithms: []string{"mvc-congest", "gavril"},
		Epsilons:   []float64{0.5},
		OracleN:    16,
	}
}

func TestExpandCountAndOrder(t *testing.T) {
	jobs, rep, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 generators × 2 sizes × 1 power × 2 algorithms × 1 eps × 2 trials.
	if want := 3 * 2 * 2 * 2; len(jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(jobs), want)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", rep.Skipped)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
	}
}

func TestExpandSkipsIncompatiblePowers(t *testing.T) {
	s := testSpec()
	s.Powers = []int{2, 3, 5}
	s.Algorithms = []string{"mvc-congest", "five-thirds", "gavril"}
	jobs, rep, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// The distributed algorithms serve r ∈ [1, 4] via the parametric Gʳ
	// pipeline, so mvc-congest expands at r = 3 but not r = 5; the
	// centralized 5/3-approximation keeps its square-only guarantee and
	// only expands at r = 2; gavril is any-power.
	count := map[string]map[int]int{}
	for _, j := range jobs {
		if count[j.Algorithm] == nil {
			count[j.Algorithm] = map[int]int{}
		}
		count[j.Algorithm][j.Power]++
	}
	perCell := 3 * 2 * 2 // generators × sizes × trials
	for alg, want := range map[string]map[int]int{
		"mvc-congest": {2: perCell, 3: perCell, 5: 0},
		"five-thirds": {2: perCell, 3: 0, 5: 0},
		"gavril":      {2: perCell, 3: perCell, 5: perCell},
	} {
		for r, n := range want {
			if got := count[alg][r]; got != n {
				t.Errorf("%s at r=%d: expanded %d jobs, want %d", alg, r, got, n)
			}
		}
	}
	// One skip line per generator×size per dropped (algorithm, power) pair:
	// mvc-congest at r=5 and five-thirds at r ∈ {3, 5}.
	if want := 3 * 3 * 2; len(rep.Skipped) != want {
		t.Fatalf("got %d skips, want %d: %v", len(rep.Skipped), want, rep.Skipped)
	}
	for _, line := range rep.Skipped {
		if !strings.Contains(line, "only supports r=") {
			t.Fatalf("skip line missing the supported-power label: %q", line)
		}
	}
}

func TestSeedsAreCellLocal(t *testing.T) {
	// Removing an axis value must not change the seeds of surviving cells.
	full, _, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	trimmed := testSpec()
	trimmed.Generators = trimmed.Generators[1:]
	sub, _, err := trimmed.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int64{}
	for _, j := range full {
		seeds[j.cellKey()+string(rune(j.Trial))] = j.Seed
	}
	for _, j := range sub {
		want, ok := seeds[j.cellKey()+string(rune(j.Trial))]
		if !ok {
			t.Fatalf("cell %s missing from full expansion", j.cellKey())
		}
		if j.Seed != want {
			t.Fatalf("cell %s trial %d: seed changed %d -> %d after trimming spec",
				j.cellKey(), j.Trial, want, j.Seed)
		}
	}
	// And different trials of one cell must get different seeds.
	if full[0].Seed == full[1].Seed {
		t.Fatalf("trials 0 and 1 share seed %d", full[0].Seed)
	}
}

func TestValidateRejectsUnknownNames(t *testing.T) {
	s := testSpec()
	s.Algorithms = []string{"no-such-algorithm"}
	if _, _, err := s.Expand(); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	s = testSpec()
	s.Generators = []GeneratorSpec{{Name: "no-such-generator"}}
	if _, _, err := s.Expand(); err == nil {
		t.Fatal("expected error for unknown generator")
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	good := `{"name":"x","rootSeed":1,"generators":[{"name":"path"}],"sizes":[8],"algorithms":["gavril"]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := strings.Replace(good, `"sizes"`, `"sizs"`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

// TestLoadSpecEngineModes: engineModes is kept for spec files written when
// the simulator had two engines. "batch" and "" load and change nothing —
// the axis never multiplies jobs — while "goroutine" and unknown names are
// rejected with the removal message, at load time for specs and at run time
// for hand-built jobs.
func TestLoadSpecEngineModes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	load := func(modes string) (*Spec, error) {
		spec := `{"name":"x","rootSeed":1,"generators":[{"name":"path"}],"sizes":[8],` +
			`"algorithms":["mvc-congest","gavril"]` + modes + `}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadSpec(path)
	}
	plain, err := load("")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, modes := range []string{`"batch"`, `""`, `"batch",""`} {
		spec, err := load(`,"engineModes":[` + modes + `]`)
		if err != nil {
			t.Fatalf("engineModes [%s] rejected: %v", modes, err)
		}
		got, _, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engineModes [%s] changed the expansion: %d jobs, want %d", modes, len(got), len(want))
		}
	}
	for _, modes := range []string{`"goroutine"`, `"batch","goroutine"`, `"threads"`} {
		_, err := load(`,"engineModes":[` + modes + `]`)
		if err == nil || !strings.Contains(err.Error(), "goroutine engine was removed") {
			t.Fatalf("engineModes [%s]: err = %v, want the removal message", modes, err)
		}
	}
	job := want[0]
	job.Engine = "goroutine"
	if res := executeJob(job, nil); !strings.Contains(res.Error, "goroutine engine was removed") {
		t.Fatalf("job with engine goroutine: error %q", res.Error)
	}
}

func TestLoadSpecRejectsTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	good := `{"name":"x","rootSeed":1,"generators":[{"name":"path"}],"sizes":[8],"algorithms":["gavril"]}`
	for _, trailing := range []string{
		good,       // a concatenated second spec
		`{}`,       // a second JSON value
		`garbage]`, // plain corruption
		`0`,        // a stray scalar
	} {
		if err := os.WriteFile(path, []byte(good+"\n"+trailing), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err == nil {
			t.Errorf("spec with trailing %q loaded without error", trailing)
		}
	}
	// Trailing whitespace and newlines are not garbage.
	if err := os.WriteFile(path, []byte(good+"\n\n  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Errorf("spec with trailing whitespace rejected: %v", err)
	}
}

func TestGeneratorBuildSizes(t *testing.T) {
	for _, name := range GeneratorNames() {
		g := GeneratorSpec{Name: name}
		built, err := g.Build(16, newTestRng(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if built.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	// Weighted overlay draws from the same stream deterministically.
	w := GeneratorSpec{Name: "connected-gnp", MaxWeight: 50}
	a, _ := w.Build(20, newTestRng(3))
	b, _ := w.Build(20, newTestRng(3))
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("weighted generator not deterministic")
	}
}
