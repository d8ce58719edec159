package harness

import (
	"os"
	"testing"
)

// megaGolden pins the summary of the mega sweep's seeded 100k-vertex MDS
// cell (specs/mega-sweep.json, rootSeed 20: connected-gnm n=100000 r=2
// mds-congest, batch engine, trial 0).  The values were produced by
// `make sweep-mega` and are shard-independent by the determinism
// contract — the test runs the cell at 8 shards and must reproduce the
// shards=1 sweep row bit for bit.
const (
	megaGoldenCost         = int64(4287)
	megaGoldenSolutionSize = 4287
	megaGoldenRounds       = 83952
	megaGoldenMessages     = int64(348_520_055)
	megaGoldenTotalBits    = int64(15_544_130_474)
	megaGoldenSpans        = "mds-estimate*396:40392;mds-phase*396:83952;mds-votes*396:40392"
)

// TestMegaGoldenSummary replays the mega sweep's 100k MDS job exactly —
// same seed derivation as Spec.Expand under rootSeed 20 — and asserts
// the golden run summary.  A drift in rounds, messages, bits, solution,
// or span structure here means the checked-in BENCH_mega.json no longer
// describes the code.  Gated behind MEGA_SMOKE (the cell counts the full
// w.h.p. MDS phase budget; with the silent phases skipped it takes about
// half a minute and 0.3 GB on a 2-vCPU Xeon); run via
// `make sweep-mega-smoke`.
func TestMegaGoldenSummary(t *testing.T) {
	if os.Getenv("MEGA_SMOKE") == "" {
		t.Skip("golden 100k MDS cell: about half a minute; run via make sweep-mega-smoke")
	}
	j := Job{
		Generator: GeneratorSpec{Name: "connected-gnm"},
		N:         100_000,
		Power:     2,
		Algorithm: "mds-congest",
		Epsilon:   0,
		Engine:    "batch",
		Trial:     0,
		Shards:    8,
	}
	j.Seed = deriveSeed(20, j.cellKey(), 0)
	j.InstanceSeed = deriveSeed(20, j.instanceKey(), 0)
	res := executeJob(j, nil)
	if res.Error != "" {
		t.Fatalf("job failed: %s", res.Error)
	}
	if !res.Verified {
		t.Fatal("solution failed feasibility verification on G²")
	}
	if res.Cost != megaGoldenCost || res.SolutionSize != megaGoldenSolutionSize {
		t.Errorf("solution drifted: cost=%d size=%d, golden cost=%d size=%d",
			res.Cost, res.SolutionSize, megaGoldenCost, megaGoldenSolutionSize)
	}
	if res.Rounds != megaGoldenRounds {
		t.Errorf("rounds = %d, golden %d", res.Rounds, megaGoldenRounds)
	}
	if res.Messages != megaGoldenMessages || res.TotalBits != megaGoldenTotalBits {
		t.Errorf("traffic drifted: messages=%d bits=%d, golden messages=%d bits=%d",
			res.Messages, res.TotalBits, megaGoldenMessages, megaGoldenTotalBits)
	}
	if res.Spans != megaGoldenSpans {
		t.Errorf("span summary drifted:\n got: %s\nwant: %s", res.Spans, megaGoldenSpans)
	}
}
