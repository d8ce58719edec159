package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"powergraph/internal/harness"
	"powergraph/internal/serve"
)

// benchmarkJSON is the subset of the repository root's BENCHMARK.json the
// tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the command runs %s", got, want)
	}
	compare := func(kind string, declared []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(declared) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(declared))
			return
		}
		for i, m := range declared {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bj.EndToEnd)
	compare("per_layer", perLayer, bj.PerLayer)
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at the tiny
// scale, and checks that the correctness gate passes and that every metric
// BENCHMARK.json declares is printed with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := runConfig{seed: 3, seconds: time.Second, trace: trace, outDir: t.TempDir(), tiny: true}
				res, err := w.run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.Attempted == 0 {
					t.Fatalf("correctness gate: attempted %d, failed %d, problems %q", res.Attempted, res.Failed, res.Problems)
				}
				var out bytes.Buffer
				printResult(&out, res)
				lines := map[string]bool{}
				for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
					f := strings.Fields(line)
					if len(f) != 4 || f[0] != w.name {
						t.Fatalf("malformed line %q", line)
					}
					lines[f[1]+" "+f[3]] = true
				}
				declared := bj.EndToEnd
				if trace {
					declared = bj.PerLayer
				}
				for _, m := range declared {
					if !lines[m.Name+" "+m.Unit] {
						t.Errorf("metric %s (%s) not printed", m.Name, m.Unit)
					}
				}
				if !trace {
					for _, m := range []string{"op_p50_ms", "cost_sum"} {
						if res.Metrics[m] <= 0 {
							t.Errorf("%s = %v, want a positive value", m, res.Metrics[m])
						}
					}
				}
			})
		}
	}
}

// TestScheduleHoldsTheMix checks that an open-loop schedule paces its
// requests evenly, holds exactly the run's shares of churn batches and cold
// solves, and is the same when drawn again from the same seed.
func TestScheduleHoldsTheMix(t *testing.T) {
	sl := serveChurn
	sl.coldFrac, sl.cold = 0.1, sl.warm
	d := 20 * time.Second
	reqs := sl.schedule(5, d)
	n := int(sl.rate * d.Seconds())
	if len(reqs) != n {
		t.Fatalf("%d requests, want %d", len(reqs), n)
	}
	gap := d / time.Duration(n)
	edges, cold := 0, 0
	for i, r := range reqs {
		if r.id != int64(i) || (i > 0 && (r.due-reqs[i-1].due-gap).Abs() > time.Microsecond) {
			t.Fatalf("request %d: id %d due %v, want one every %v", i, r.id, r.due, gap)
		}
		if r.edges {
			edges++
		}
		if r.solve.Seed >= coldSeedBase {
			cold++
		}
	}
	if edges != 300 || cold != 40 {
		t.Errorf("%d churn batches and %d cold solves, want 300 and 40", edges, cold)
	}
	if again := sl.schedule(5, d); !slices.Equal(again, reqs) {
		t.Error("the same seed drew a different schedule")
	}
}

// TestSweepCheckRejects feeds the sweep correctness gate results it must
// reject.
func TestSweepCheckRejects(t *testing.T) {
	for name, r := range map[string]harness.JobResult{
		"error":      {Algorithm: "gavril", Error: "boom", Optimum: -1},
		"unverified": {Algorithm: "gavril", Optimum: -1},
		"ratio":      {Algorithm: "gavril", Verified: true, Optimum: 10, Ratio: 2.5},
	} {
		res := newResult("sweep-kernel", runConfig{})
		sweepKernel.check(res, &r)
		if res.correct() {
			t.Errorf("%s: accepted", name)
		}
	}
	res := newResult("sweep-kernel", runConfig{})
	good := harness.JobResult{Algorithm: "gavril", Verified: true, Optimum: 10, Ratio: 1.5, Cost: 15}
	sweepKernel.check(res, &good)
	sameResult(res, &good, &good)
	if !res.correct() {
		t.Errorf("rejected a result within the ratio bound: %q", res.Problems)
	}
	repeat := good
	repeat.Cost++
	sameResult(res, &repeat, &good)
	if res.correct() {
		t.Error("accepted a repeat whose cost differs from the job's first run")
	}
}

// TestServeCheckRejects feeds the serving correctness gate runs it must
// reject: a cached answer that differs from its original, a gap in the churn
// versions, and an edge count that disagrees with the mirror.
func TestServeCheckRejects(t *testing.T) {
	warm := serveChurn.warm[0]
	original := &serve.SolveResponse{Algorithm: warm.Algorithm, Power: warm.Power, Cost: 10, Verified: true}
	env := &serveEnv{originals: []*serve.SolveResponse{original, {Algorithm: "gavril", Power: 3, Verified: true}}}
	good := func() *loadRun {
		cached := *original
		cached.Cached = true
		return &loadRun{
			outs: []outcome{
				{request: request{id: 0, solve: warm}, answer: &cached},
				{request: request{id: 1, edges: true}, churned: &serve.ChurnResult{Version: 1}},
				{request: request{id: 2, edges: true}, churned: &serve.ChurnResult{Version: 2}},
			},
			final:   serve.InstanceInfo{Version: 2, M: 7},
			mirrorM: 7,
		}
	}
	res := newResult("serve-churn", runConfig{})
	serveChurn.check(res, env, good())
	if !res.correct() {
		t.Fatalf("rejected a consistent run: %q", res.Problems)
	}
	for name, mutate := range map[string]func(*loadRun){
		"cached answer differs": func(lr *loadRun) { lr.outs[0].answer.Cost = 11 },
		"version gap":           func(lr *loadRun) { lr.outs[2].churned.Version = 3 },
		"edge count":            func(lr *loadRun) { lr.mirrorM = 8 },
		"unverified":            func(lr *loadRun) { lr.outs[0].answer.Verified = false },
	} {
		lr := good()
		mutate(lr)
		res := newResult("serve-churn", runConfig{})
		serveChurn.check(res, env, lr)
		if res.correct() {
			t.Errorf("%s: accepted", name)
		}
	}
}
