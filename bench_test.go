package powergraph

// One Go benchmark per theorem/figure of the paper, the micro-benchmark
// counterparts of the cmd/experiments tables (which print to stdout).
// Custom metrics attach the distributed cost measures that wall time does
// not capture: simulated rounds, delivered bits, cut traffic, and
// approximation ratios.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"powergraph/internal/verify"
)

// E1 (Theorem 1): CONGEST (1+ε)-approximate G²-MVC — rounds scale as
// O(n/ε), ratio stays within 1+ε.
func BenchmarkE1MVCCongest(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, eps := range []float64{1, 0.5, 0.25} {
			b.Run(fmt.Sprintf("n=%d/eps=%.2f", n, eps), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				g := ConnectedGNP(n, 8/float64(n), rng)
				sq := g.Square()
				// Exact reference is affordable at n ≤ 64; beyond that the
				// matching bound documents feasibility-side quality only.
				var ref int64
				exactRef := n <= 64
				if exactRef {
					ref = Cost(sq, ExactVC(sq))
				} else {
					ref = verify.MatchingLowerBound(sq)
				}
				var rounds, bits int64
				var ratio float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := MVCCongest(g, eps, &Options{Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					rounds += int64(res.Stats.Rounds)
					bits += res.Stats.TotalBits
					ratio = RatioOf(Cost(sq, res.Solution), ref).Value
					if exactRef && ratio > 1+eps+1e-9 {
						b.Fatalf("ratio %f exceeds 1+ε", ratio)
					}
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				b.ReportMetric(float64(bits)/float64(b.N), "msgbits/op")
				if exactRef {
					b.ReportMetric(ratio, "ratio-vs-opt")
				} else {
					b.ReportMetric(ratio, "ratio-vs-matchingLB")
				}
			})
		}
	}
}

// E2 (Theorem 7): weighted variant.
func BenchmarkE2MWVCCongest(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := WithRandomWeights(ConnectedGNP(n, 8/float64(n), rng), 50, rng)
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := MWVCCongest(g, 0.5, &Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// E3 (Corollary 10 / Theorem 11): CONGESTED CLIQUE variants — deterministic
// O(εn + 1/ε) vs randomized O(log n + 1/ε) rounds.
func BenchmarkE3Clique(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, mode := range []string{"det", "rand"} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				g := ConnectedGNP(n, 8/float64(n), rng)
				var rounds int64
				for i := 0; i < b.N; i++ {
					var res *Result
					var err error
					if mode == "det" {
						res, err = MVCCliqueDeterministic(g, 0.5, &Options{Seed: int64(i)})
					} else {
						res, err = MVCCliqueRandomized(g, 0.5, &Options{Seed: int64(i)})
					}
					if err != nil {
						b.Fatal(err)
					}
					rounds += int64(res.Stats.Rounds)
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			})
		}
	}
}

// E4 (Theorem 12): centralized 5/3-approximation vs Gavril's 2-approx vs
// the exact optimum on squares.
func BenchmarkE4Centralized53(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := ConnectedGNP(24, 0.15, rng)
	sq := g.Square()
	opt := Cost(sq, ExactVC(sq))
	var r53, r2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := FiveThirdsSquareMVC(g)
		gav := Gavril2Approx(sq)
		r53 = RatioOf(Cost(sq, res.Cover), opt).Value
		r2 = RatioOf(Cost(sq, gav), opt).Value
	}
	b.ReportMetric(r53, "ratio-5/3alg")
	b.ReportMetric(r2, "ratio-gavril")
}

// E5 (Lemma 6): the all-vertices solution on Gʳ.
func BenchmarkE5TrivialPower(b *testing.B) {
	for _, r := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := ConnectedGNP(20, 0.12, rng)
			gr := g.Power(r)
			opt := Cost(gr, ExactVC(gr))
			var ratio float64
			for i := 0; i < b.N; i++ {
				all := AllVerticesPowerMVC(g)
				ratio = RatioOf(Cost(gr, all), opt).Value
			}
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(Lemma6Bound(r), "lemma6-bound")
		})
	}
}

// E6 (Theorem 20, Figures 1–2): weighted gadget family — MWVC(H²) must
// equal MVC(G), flipping with DISJ.
func BenchmarkE6WeightedGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(4, rng)
		w, err := BuildWeightedMVCGadget(x, y)
		if err != nil {
			b.Fatal(err)
		}
		h2 := w.H.Square()
		if Cost(h2, ExactVC(h2)) != Cost(w.Base.G, ExactVC(w.Base.G)) {
			b.Fatal("Lemma 21 equality violated")
		}
	}
}

// E7 (Theorem 22, Figure 3): unweighted gadget family with its 2·#gadgets
// offset, plus the logarithmic cut.
func BenchmarkE7UnweightedGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var cut float64
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(2, rng)
		u, err := BuildUnweightedMVCGadget(x, y)
		if err != nil {
			b.Fatal(err)
		}
		h2 := u.H.Square()
		want := Cost(u.Base.G, ExactVC(u.Base.G)) + 2*int64(u.GadgetCount())
		if Cost(h2, ExactVC(h2)) != want {
			b.Fatal("Lemma 24 equality violated")
		}
		cut = float64(u.Base.CutSize())
	}
	b.ReportMetric(cut, "cut-edges")
}

// E8 (Theorem 31, Figures 4–5): MDS gadget family via the verified
// normal-form reduction.
func BenchmarkE8MDSGadget(b *testing.B) {
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			var vertices float64
			for i := 0; i < b.N; i++ {
				x, y := RandomIntersectingPair(k, rng)
				m, err := BuildMDSGadget(x, y)
				if err != nil {
					b.Fatal(err)
				}
				structural := m.StructuralOptimum()
				base := int(Cost(m.BaseFamily.G, ExactDS(m.BaseFamily.G)))
				if structural != base+m.GadgetCount() {
					b.Fatal("Lemma 34 equality violated")
				}
				vertices = float64(m.H.N())
			}
			b.ReportMetric(vertices, "H-vertices")
		})
	}
}

// E9 (Theorems 35/41, Figures 6–7): set-gadget gap 6 vs 7 (weighted) and
// 8 vs 9 (unweighted) on exact optima.
func BenchmarkE9SetGadgetGap(b *testing.B) {
	for _, weighted := range []bool{true, false} {
		name := "weighted"
		if !weighted {
			name = "unweighted"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			f := CubeFamily(3)
			for i := 0; i < b.N; i++ {
				intersecting := i%2 == 0
				var x, y DisjMatrix
				if intersecting {
					x, y = RandomIntersectingPair(3, rng)
				} else {
					x, y = RandomDisjointPair(3, rng)
				}
				g, err := BuildSetGadgetMDS(x, y, f, weighted, 9)
				if err != nil {
					b.Fatal(err)
				}
				h2 := g.H.Square()
				opt := Cost(h2, ExactDS(h2))
				if intersecting && opt > g.GapLow() {
					b.Fatal("gap-low violated")
				}
				if !intersecting && opt <= g.GapLow() {
					b.Fatal("gap-high violated")
				}
			}
		})
	}
}

// E10 (Theorem 28): randomized G²-MDS — polylog rounds, O(log Δ) ratio.
func BenchmarkE10MDSCongest(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			g := ConnectedGNP(n, 8/float64(n), rng)
			sq := g.Square()
			greedy := Cost(sq, GreedyMDS(sq))
			var rounds int64
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := MDSCongest(g, &MDSOptions{Options: Options{Seed: int64(i)}})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
				ratio = RatioOf(Cost(sq, res.Solution), greedy).Value
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(ratio, "ratio-vs-greedy")
		})
	}
}

// E11 (Lemma 29/30): estimator accuracy vs repetition count.
func BenchmarkE11Estimator(b *testing.B) {
	for _, r := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			const k = 100
			var errSum float64
			var trials int
			for i := 0; i < b.N; i++ {
				est := estimateCardinality(k, r, rng)
				errSum += math.Abs(est-k) / k
				trials++
			}
			b.ReportMetric(errSum/float64(trials), "mean-rel-err")
		})
	}
}

// E12 (Theorem 26): the conditional reduction pipeline G → H → (1+ε)
// G²-MVC → (1+δ)-approximate cover of G.
func BenchmarkE12ConditionalReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := ConnectedGNP(12, 0.25, rng)
	r := BuildDanglingPathReduction(g)
	optG := Cost(g, ExactVC(g))
	delta := 0.5
	eps := r.ReductionEpsilon(delta, verify.MatchingLowerBound(g))
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MVCCongest(r.H, eps, &Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		proj := r.ProjectCover(res.Solution)
		if ok, _ := IsVertexCover(g, proj); !ok {
			b.Fatal("projected cover infeasible")
		}
		ratio = RatioOf(Cost(g, proj), optG).Value
		if ratio > 1+delta+1e-9 {
			b.Fatalf("ratio %f exceeds 1+δ", ratio)
		}
	}
	b.ReportMetric(ratio, "projected-ratio")
}

// E13 (Theorems 44/45): centralized reductions.
func BenchmarkE13CentralizedReductions(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < b.N; i++ {
		g := GNP(8, 0.4, rng)
		if g.M() == 0 {
			continue
		}
		r := BuildDanglingPathReduction(g)
		h2 := r.H.Square()
		if Cost(h2, ExactVC(h2)) != Cost(g, ExactVC(g))+2*int64(g.M()) {
			b.Fatal("Theorem 44 equality violated")
		}
		mr, err := BuildMergedPathReduction(g)
		if err != nil {
			b.Fatal(err)
		}
		mh2 := mr.H.Square()
		if Cost(mh2, ExactDS(mh2)) != Cost(g, ExactDS(g))+1 {
			b.Fatal("Theorem 45 equality violated")
		}
	}
}

// E14 (Theorem 19 / Lemma 25): cut traffic across the Alice/Bob partition
// of the gadget family, approximate algorithm vs the near-exact regime,
// and the Lemma 25 protocol's O(log n) bits.
func BenchmarkE14CutTraffic(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x, y := RandomIntersectingPair(2, rng)
	u, err := BuildUnweightedMVCGadget(x, y)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{1, 0.02} {
		b.Run(fmt.Sprintf("alg1-eps=%.2f", eps), func(b *testing.B) {
			var cutBits int64
			for i := 0; i < b.N; i++ {
				res, err := MVCCongest(u.H, eps, &Options{Seed: int64(i), CutA: u.Alice})
				if err != nil {
					b.Fatal(err)
				}
				cutBits = res.Stats.CutBits
			}
			b.ReportMetric(float64(cutBits), "cut-bits")
		})
	}
	b.Run("lemma25", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			cover, tr := Lemma25Cover(u.H, u.Alice)
			if ok, _ := IsSquareVertexCover(u.H, cover); !ok {
				b.Fatal("Lemma 25 cover infeasible")
			}
			bits = tr.Total()
		}
		b.ReportMetric(float64(bits), "cut-bits")
	})
}

// Ablation: the exact VC solver's dominance reduction makes path squares
// polynomial — scaling check.
func BenchmarkAblationExactVCOnSquares(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		b.Run(fmt.Sprintf("pathsq-n=%d", n), func(b *testing.B) {
			sq := Path(n).Square()
			for i := 0; i < b.N; i++ {
				if s := ExactVC(sq); s.Empty() {
					b.Fatal("empty cover")
				}
			}
		})
	}
}

// Ablation: estimator sample factor vs MDS solution quality.
func BenchmarkAblationMDSSampleFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := ConnectedGNP(24, 0.25, rng)
	sq := g.Square()
	opt := Cost(sq, ExactDS(sq))
	for _, sf := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("samples=%dlogn", sf), func(b *testing.B) {
			var ratio float64
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := MDSCongest(g, &MDSOptions{
					Options:      Options{Seed: int64(i)},
					SampleFactor: sf,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = RatioOf(Cost(sq, res.Solution), opt).Value
				rounds += int64(res.Stats.Rounds)
			}
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// Ablation: Phase I symmetry breaking in CONGEST — deterministic 2-hop
// max-ID (Theorem 1) vs randomized voting (Section 3.3). The voting
// variant retires heavy neighborhoods in O(log n) iterations; the overall
// rounds stay comparable because Phase II dominates (the paper's remark).
func BenchmarkAblationPhase1(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := ConnectedGNP(96, 0.25, rng)
	for _, mode := range []string{"deterministic", "voting"} {
		b.Run(mode, func(b *testing.B) {
			var rounds, phase1 int64
			for i := 0; i < b.N; i++ {
				var res *Result
				var err error
				if mode == "deterministic" {
					res, err = MVCCongest(g, 0.5, &Options{Seed: int64(i)})
				} else {
					res, err = MVCCongestRandomized(g, 0.5, &Options{Seed: int64(i)})
				}
				if err != nil {
					b.Fatal(err)
				}
				if ok, _ := IsSquareVertexCover(g, res.Solution); !ok {
					b.Fatal("infeasible")
				}
				rounds += int64(res.Stats.Rounds)
				phase1 += int64(res.PhaseISize)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(phase1)/float64(b.N), "phaseI-size")
		})
	}
}

// Ablation: simulator engine throughput (barrier + delivery cost per
// node-round).
func BenchmarkAblationEngineThroughput(b *testing.B) {
	g := Grid(10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MVCCongest(g, 1, &Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rounds == 0 {
			b.Fatal("no rounds")
		}
	}
}

// estimateCardinality re-runs the Lemma 29 estimator centrally (the
// distributed version is exercised by E10).
func estimateCardinality(k, r int, rng *rand.Rand) float64 {
	minima := make([]float64, r)
	for j := range minima {
		m := math.Inf(1)
		for i := 0; i < k; i++ {
			if w := rng.ExpFloat64(); w < m {
				m = w
			}
		}
		minima[j] = m
	}
	var sum float64
	for _, w := range minima {
		sum += w
	}
	return float64(r) / sum
}
