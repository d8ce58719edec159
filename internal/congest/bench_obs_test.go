package congest

import (
	"fmt"
	"testing"

	"powergraph/internal/graph"
	"powergraph/internal/obs"
)

// BenchmarkObs prices the observability hooks on the engine hot loop (the
// same full-exchange workload as BenchmarkEngineModes): "off" is the
// zero-cost-when-disabled baseline (nil Tracer — every emission site pays
// one branch and nothing else), "spans" a span-only collector (rounds not
// subscribed, so no round event is built), "rounds" a collector that also
// takes every per-round event. Run it with `make bench-obs` and compare "off"
// against `make bench-engine`: the contract is <2% and zero added
// allocations, enforced by TestDisabledTracerAddsNoAllocations below.
func BenchmarkObs(b *testing.B) {
	const rounds = 50
	for _, n := range []int{256, 1024} {
		g := graph.ConnectedGNP(n, 8/float64(n), newRand(1))
		w := IDBits(n)
		tracers := []struct {
			name string
			mk   func() obs.Tracer
		}{
			{"off", func() obs.Tracer { return nil }},
			{"spans", func() obs.Tracer { return &obs.Collector{} }},
			{"rounds", func() obs.Tracer { return &obs.Collector{CollectRounds: true} }},
		}
		for _, tc := range tracers {
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := runExchange(Config{Graph: g, Tracer: tc.mk()}, rounds, w, false); err != nil {
						b.Fatal(err)
					}
				}
				reportNodeRounds(b, n, rounds)
			})
		}
	}
}

// TestDisabledTracerAddsNoAllocations pins the cheap-path contract
// mechanically: attaching a span-only collector to a run that emits no
// spans must cost (to within the collector's own one-off lazy state) zero
// allocations over the nil-tracer run — i.e. the emission sites allocate
// nothing themselves; event structs stay on the stack and round events are
// only built for rounds-subscribed tracers. The <2% overhead
// figure is the benchmark pair `make bench-obs` ("off") vs
// `make bench-engine`.
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	const rounds = 10
	g := graph.ConnectedGNP(64, 0.1, newRand(2))
	w := IDBits(64)
	run := func(tr obs.Tracer) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := runExchange(Config{Graph: g, Tracer: tr}, rounds, w, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A span-only collector must not trigger the per-round accounting
	// either: WantRounds is sampled once, and an unsubscribed run allocates
	// no RoundEvent machinery.
	off := run(nil)
	spans := run(&obs.Collector{})
	if spans > off+1 { // the collector itself may lazily allocate once
		t.Fatalf("span-only tracer added %.0f allocations over disabled (%.0f)", spans-off, off)
	}
}
