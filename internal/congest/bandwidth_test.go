package congest_test

import (
	"testing"

	"powergraph/internal/congest"
	"powergraph/internal/harness"
)

// TestRegistryBandwidthStaysLogarithmic is the CONGEST-budget property test:
// every distributed registry algorithm, run at several sizes and at every supported power r ∈ {1, 2, 3, 4}, must keep its
// enforced per-message budget within a constant multiple of ⌈log₂ n⌉ bits —
// the "O(log n)-bit messages" assumption all of the paper's round bounds
// rely on, which the Gʳ generalization must not erode (its depth-r
// collectives re-flood fixed-width payloads; depth never widens a message).
// The simulator already rejects any single message over the budget, so a
// clean run plus a bounded budget pins both sides; a rewrite that
// accidentally fattens a payload (or inflates its declared width) fails here
// before it can skew any benchmark.
//
// The constant 8 is the largest bandwidth factor any algorithm requests
// (Theorem 28's estimator payloads); everything else runs at the default 4.
//
// The r ≠ 2 cells run the sparsified primitives (StepSparsify labels, the
// routed candidate-min relays), so they prove their O(log n)-bit claim at
// r ∈ {1, 3, 4}.
func TestRegistryBandwidthStaysLogarithmic(t *testing.T) {
	const maxFactor = 8
	var distributed []string
	for _, info := range harness.AlgorithmInfos() {
		if info.Model != harness.ModelCentralized {
			distributed = append(distributed, info.Name)
		}
	}
	spec := &harness.Spec{
		Name:     "bandwidth",
		RootSeed: 11,
		Trials:   1,
		Generators: []harness.GeneratorSpec{
			// Weighted instances exercise the weight reports of Theorem 7.
			{Name: "connected-gnp", MaxWeight: 20},
			{Name: "random-tree"},
		},
		Sizes:      []int{10, 17, 33},
		Powers:     []int{1, 2, 3, 4},
		Algorithms: distributed,
		Epsilons:   []float64{0.5},
		OracleN:    0,
	}
	rep, err := harness.Run(t.Context(), spec, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Error != "" {
				t.Errorf("%s n=%d: %s", r.Algorithm, r.N, r.Error)
			}
		}
		t.Fatalf("%d jobs failed", rep.Failed)
	}
	seenPowers := map[int]bool{}
	for _, r := range rep.Results {
		seenPowers[r.Power] = true
		idw := congest.IDBits(r.N)
		if r.Bandwidth > maxFactor*idw {
			t.Errorf("%s n=%d r=%d: budget %d bits exceeds %d·⌈log₂ n⌉ = %d",
				r.Algorithm, r.N, r.Power, r.Bandwidth, maxFactor, maxFactor*idw)
		}
		if !r.Verified {
			t.Errorf("%s n=%d r=%d: solution failed feasibility", r.Algorithm, r.N, r.Power)
		}
		// Internal consistency of the accounting: no round (and no total)
		// can exceed what its message count allows under the budget.
		if r.TotalBits > r.Messages*int64(r.Bandwidth) {
			t.Errorf("%s n=%d r=%d: totalBits %d > messages %d × budget %d",
				r.Algorithm, r.N, r.Power, r.TotalBits, r.Messages, r.Bandwidth)
		}
		if r.MaxRoundBits > r.TotalBits {
			t.Errorf("%s n=%d r=%d: maxRoundBits %d > totalBits %d",
				r.Algorithm, r.N, r.Power, r.MaxRoundBits, r.TotalBits)
		}
	}
	for _, r := range []int{1, 2, 3, 4} {
		if !seenPowers[r] {
			t.Errorf("no distributed jobs ran at power r=%d", r)
		}
	}
}
