// Command experiments prints one experiment table per theorem/figure of
// "Distributed Approximation on Power Graphs" (PODC 2020) to stdout: each
// experiment prints the paper's claim and the measured rows. The tables are
// not checked in; rerun the command to regenerate them.
//
// Usage:
//
//	experiments [-run E1,E3] [-quick] [-seed 1]
//
// With no -run flag every experiment executes in order.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"powergraph"
	"powergraph/internal/estimate"
	"powergraph/internal/verify"
)

type experiment struct {
	id    string
	claim string
	run   func(cfg config)
}

type config struct {
	quick bool
	seed  int64
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	seed := flag.Int64("seed", 1, "master random seed")
	flag.Parse()

	cfg := config{quick: *quick, seed: *seed}
	want := map[string]bool{}
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s\n", e.id, e.claim)
		e.run(cfg)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -run; known ids:")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %s\n", e.id)
		}
		os.Exit(2)
	}
}

var experiments = []experiment{
	{"E1", "Thm 1 — CONGEST (1+ε)-approx G²-MVC in O(n/ε) rounds", runE1},
	{"E2", "Thm 7 — CONGEST (1+ε)-approx G²-MWVC in O(n·log n/ε) rounds", runE2},
	{"E3", "Cor 10/Thm 11 — CONGESTED CLIQUE in O(εn+1/ε) det / O(log n+1/ε) rand rounds", runE3},
	{"E4", "Thm 12 — centralized 5/3-approx for G²-MVC (vs Gavril 2-approx)", runE4},
	{"E5", "Lemma 6 — all-vertices is a (1+1/⌊r/2⌋)-approx on Gʳ", runE5},
	{"E6", "Thm 20/Fig 2 — MWVC(H²) = MVC(G), tracking DISJ", runE6},
	{"E7", "Thm 22/Fig 3 — MVC(H²) = MVC(G) + 2·#gadgets, O(log k) cut", runE7},
	{"E8", "Thm 31/Fig 5 — MDS(H²) = MDS(G) + #gadgets", runE8},
	{"E9", "Thms 35/41/Figs 6-7 — MDS gap 6 vs 7 (weighted), 8 vs 9 (unweighted)", runE9},
	{"E10", "Thm 28 — randomized O(log Δ)-approx G²-MDS in polylog rounds", runE10},
	{"E11", "Lemma 29/30 — 2-hop cardinality estimator concentration", runE11},
	{"E12", "Thm 26 — (1+ε) G²-MVC on gadgeted H ⇒ (1+δ) G-MVC", runE12},
	{"E13", "Thms 44/45 — centralized reductions VC(H²)=VC(G)+2m, MDS(H²)=MDS(G)+1", runE13},
	{"E14", "Thm 19/Lemma 25 — cut traffic: distributed runs vs the O(log n)-bit protocol", runE14},
}

func table(header string, rows [][]string) {
	cols := strings.Split(header, "|")
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(strings.TrimSpace(c))
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], strings.TrimSpace(c))
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	printRow(cols)
	for _, r := range rows {
		printRow(r)
	}
}

// presetJob pins one harness job on the sparse connected G(n, 8/n) workload
// with the master seed — the exact instance the historical tables used.
// The harness rebuilds the graph from the seed per job, so several jobs with
// the same (n, seed) see the same instance.
func presetJob(idx int, algorithm string, n int, eps float64, cfg config, oracleN int, maxWeight int64) powergraph.Job {
	return powergraph.Job{
		Index:     idx,
		Generator: powergraph.GeneratorSpec{Name: "connected-gnp", MaxWeight: maxWeight},
		N:         n,
		Power:     2,
		Algorithm: algorithm,
		Epsilon:   eps,
		Seed:      cfg.seed,
		OracleN:   oracleN,
	}
}

// runPreset executes the jobs through the shared worker pool and returns
// results in job order, or prints the first failure and reports !ok.
func runPreset(jobs []powergraph.Job) ([]powergraph.JobResult, bool) {
	rep, err := powergraph.RunJobs(context.Background(), jobs, powergraph.RunOptions{})
	if err != nil {
		fmt.Println("  error:", err)
		return nil, false
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			fmt.Println("  error:", r.Error)
			return nil, false
		}
	}
	return rep.Results, true
}

// ratioCell renders the oracle column: the measured ratio when the exact
// optimum was computed (n ≤ the job's OracleN), "-" otherwise.
func ratioCell(r powergraph.JobResult) string {
	if r.Optimum < 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", r.Ratio)
}

func runE1(cfg config) {
	sizes := []int{32, 64, 128, 256}
	if cfg.quick {
		sizes = []int{32, 64}
	}
	var jobs []powergraph.Job
	for _, n := range sizes {
		for _, eps := range []float64{1, 0.5, 0.25, 0.125} {
			jobs = append(jobs, presetJob(len(jobs), "mvc-congest", n, eps, cfg, 64, 0))
		}
	}
	results, ok := runPreset(jobs)
	if !ok {
		return
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprint(r.N), fmt.Sprintf("%.3f", r.Epsilon),
			fmt.Sprint(r.Rounds),
			fmt.Sprintf("%.1f", float64(r.Rounds)/float64(r.N)),
			fmt.Sprint(r.PhaseISize),
			ratioCell(r),
			fmt.Sprint(r.MaxRoundBits),
		})
	}
	table("n|eps|rounds|rounds/n|phaseI|ratio-vs-opt|peak-bits/round", rows)
}

func runE2(cfg config) {
	sizes := []int{32, 64, 128}
	if cfg.quick {
		sizes = []int{32, 64}
	}
	var jobs []powergraph.Job
	for _, n := range sizes {
		for _, eps := range []float64{1, 0.5, 0.25} {
			jobs = append(jobs, presetJob(len(jobs), "mwvc-congest", n, eps, cfg, 64, 50))
		}
	}
	results, ok := runPreset(jobs)
	if !ok {
		return
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprint(r.N), fmt.Sprintf("%.3f", r.Epsilon),
			fmt.Sprint(r.Rounds), ratioCell(r),
		})
	}
	table("n|eps|rounds|ratio-vs-opt", rows)
}

func runE3(cfg config) {
	sizes := []int{32, 64, 128, 256}
	if cfg.quick {
		sizes = []int{32, 64}
	}
	algs := []string{"mvc-congest", "mvc-clique-det", "mvc-clique-rand"}
	var jobs []powergraph.Job
	for _, n := range sizes {
		for _, alg := range algs {
			jobs = append(jobs, presetJob(len(jobs), alg, n, 0.5, cfg, 0, 0))
		}
	}
	results, ok := runPreset(jobs)
	if !ok {
		return
	}
	var rows [][]string
	for i := 0; i < len(results); i += len(algs) {
		n := results[i].N
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(results[i].Rounds),
			fmt.Sprint(results[i+1].Rounds),
			fmt.Sprint(results[i+2].Rounds),
			fmt.Sprintf("%.2f", float64(results[i+2].Rounds)/math.Log2(float64(n))),
		})
	}
	table("n|CONGEST-rounds|clique-det|clique-rand|rand/log2(n)", rows)
}

func runE4(cfg config) {
	trials := 20
	if cfg.quick {
		trials = 6
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	worst53, worstGav, sum53, sumGav := 0.0, 0.0, 0.0, 0.0
	count := 0
	for i := 0; i < trials; i++ {
		g := powergraph.ConnectedGNP(16+rng.Intn(10), 0.15, rng)
		sq := g.Square()
		opt := powergraph.Cost(sq, powergraph.ExactVC(sq))
		if opt == 0 {
			continue
		}
		r53 := powergraph.RatioOf(powergraph.Cost(sq, powergraph.FiveThirdsSquareMVC(g).Cover), opt).Value
		rGav := powergraph.RatioOf(powergraph.Cost(sq, powergraph.Gavril2Approx(sq)), opt).Value
		worst53 = math.Max(worst53, r53)
		worstGav = math.Max(worstGav, rGav)
		sum53 += r53
		sumGav += rGav
		count++
	}
	table("algorithm|mean-ratio|worst-ratio|guarantee", [][]string{
		{"5/3 (Alg 2)", fmt.Sprintf("%.4f", sum53/float64(count)), fmt.Sprintf("%.4f", worst53), "1.6667"},
		{"Gavril", fmt.Sprintf("%.4f", sumGav/float64(count)), fmt.Sprintf("%.4f", worstGav), "2.0000"},
	})
}

func runE5(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	g := powergraph.ConnectedGNP(20, 0.12, rng)
	var rows [][]string
	for _, r := range []int{2, 3, 4, 5, 6} {
		gr := g.Power(r)
		opt := powergraph.Cost(gr, powergraph.ExactVC(gr))
		ratio := powergraph.RatioOf(int64(g.N()), opt).Value
		rows = append(rows, []string{
			fmt.Sprint(r),
			fmt.Sprintf("%.4f", ratio),
			fmt.Sprintf("%.4f", powergraph.Lemma6Bound(r)),
		})
	}
	table("r|all-vertices ratio|Lemma 6 bound", rows)
}

func runE6(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var rows [][]string
	for trial := 0; trial < 6; trial++ {
		var x, y powergraph.DisjMatrix
		if trial%2 == 0 {
			x, y = powergraph.RandomIntersectingPair(4, rng)
		} else {
			x, y = powergraph.RandomDisjointPair(4, rng)
		}
		w, err := powergraph.BuildWeightedMVCGadget(x, y)
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		h2 := w.H.Square()
		baseOpt := powergraph.Cost(w.Base.G, powergraph.ExactVC(w.Base.G))
		gadgetOpt := powergraph.Cost(h2, powergraph.ExactVC(h2))
		rows = append(rows, []string{
			fmt.Sprint(trial),
			fmt.Sprint(!powergraph.Disj(x.Bits, y.Bits)),
			fmt.Sprint(baseOpt),
			fmt.Sprint(gadgetOpt),
			fmt.Sprint(w.Base.CoverTarget()),
			fmt.Sprint(baseOpt == gadgetOpt),
		})
	}
	table("trial|intersecting|MVC(G)|MWVC(H²)|W-target|equal", rows)
}

func runE7(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var rows [][]string
	for trial := 0; trial < 4; trial++ {
		var x, y powergraph.DisjMatrix
		if trial%2 == 0 {
			x, y = powergraph.RandomIntersectingPair(2, rng)
		} else {
			x, y = powergraph.RandomDisjointPair(2, rng)
		}
		u, err := powergraph.BuildUnweightedMVCGadget(x, y)
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		h2 := u.H.Square()
		baseOpt := powergraph.Cost(u.Base.G, powergraph.ExactVC(u.Base.G))
		gadgetOpt := powergraph.Cost(h2, powergraph.ExactVC(h2))
		rows = append(rows, []string{
			fmt.Sprint(trial),
			fmt.Sprint(!powergraph.Disj(x.Bits, y.Bits)),
			fmt.Sprint(baseOpt),
			fmt.Sprint(gadgetOpt),
			fmt.Sprint(baseOpt + 2*int64(u.GadgetCount())),
			fmt.Sprint(u.Base.CutSize()),
		})
	}
	table("trial|intersecting|MVC(G)|MVC(H²)|G+2·gadgets|cut", rows)
}

func runE8(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var rows [][]string
	for _, k := range []int{2, 4} {
		for trial := 0; trial < 2; trial++ {
			var x, y powergraph.DisjMatrix
			if trial%2 == 0 {
				x, y = powergraph.RandomIntersectingPair(k, rng)
			} else {
				x, y = powergraph.RandomDisjointPair(k, rng)
			}
			m, err := powergraph.BuildMDSGadget(x, y)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			baseOpt := powergraph.Cost(m.BaseFamily.G, powergraph.ExactDS(m.BaseFamily.G))
			structural := m.StructuralOptimum()
			rows = append(rows, []string{
				fmt.Sprint(k),
				fmt.Sprint(!powergraph.Disj(x.Bits, y.Bits)),
				fmt.Sprint(m.H.N()),
				fmt.Sprint(m.GadgetCount()),
				fmt.Sprint(baseOpt),
				fmt.Sprint(structural),
				fmt.Sprint(int64(structural) == baseOpt+int64(m.GadgetCount())),
			})
		}
	}
	table("k|intersecting|H-vertices|gadgets|MDS(G)|MDS(H²)|equal-offset", rows)
}

func runE9(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	f := powergraph.CubeFamily(3)
	var rows [][]string
	for _, weighted := range []bool{true, false} {
		for _, intersecting := range []bool{true, false} {
			var x, y powergraph.DisjMatrix
			if intersecting {
				x, y = powergraph.RandomIntersectingPair(3, rng)
			} else {
				x, y = powergraph.RandomDisjointPair(3, rng)
			}
			g, err := powergraph.BuildSetGadgetMDS(x, y, f, weighted, 9)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			h2 := g.H.Square()
			opt := powergraph.Cost(h2, powergraph.ExactDS(h2))
			rows = append(rows, []string{
				fmt.Sprint(weighted),
				fmt.Sprint(intersecting),
				fmt.Sprint(g.H.N()),
				fmt.Sprint(g.CutSize()),
				fmt.Sprint(opt),
				fmt.Sprint(g.GapLow()),
			})
		}
	}
	table("weighted|intersecting|H-vertices|cut|MDS(H²)|gap-low", rows)
}

func runE10(cfg config) {
	sizes := []int{16, 32, 64, 128}
	if cfg.quick {
		sizes = []int{16, 32}
	}
	var jobs []powergraph.Job
	for _, n := range sizes {
		jobs = append(jobs, presetJob(len(jobs), "mds-congest", n, 0, cfg, 32, 0))
		jobs = append(jobs, presetJob(len(jobs), "greedy-mds", n, 0, cfg, 0, 0))
	}
	results, ok := runPreset(jobs)
	if !ok {
		return
	}
	var rows [][]string
	for i := 0; i < len(results); i += 2 {
		mds, greedy := results[i], results[i+1]
		ratioStr := "-"
		if mds.Optimum >= 0 {
			ratioStr = fmt.Sprintf("%.3f", mds.Ratio)
		}
		logn := math.Log2(float64(mds.N))
		rows = append(rows, []string{
			fmt.Sprint(mds.N),
			fmt.Sprint(mds.Rounds),
			fmt.Sprintf("%.1f", float64(mds.Rounds)/(logn*logn*logn)),
			fmt.Sprint(mds.Cost),
			fmt.Sprint(greedy.Cost),
			ratioStr,
			fmt.Sprint(mds.FallbackJoins),
		})
	}
	table("n|rounds|rounds/log³n|MDS-size|greedy-size|ratio-vs-opt|fallback", rows)
}

func runE11(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var rows [][]string
	for _, k := range []int{5, 50, 500} {
		for _, r := range []int{8, 32, 128} {
			trials := 200
			var errSum float64
			for i := 0; i < trials; i++ {
				est := estimate.Cardinality(k, r, rng)
				errSum += math.Abs(est-float64(k)) / float64(k)
			}
			rows = append(rows, []string{
				fmt.Sprint(k), fmt.Sprint(r),
				fmt.Sprintf("%.4f", errSum/float64(trials)),
				fmt.Sprintf("%.4f", math.Sqrt(3*math.Log(20)/float64(r))),
			})
		}
	}
	table("k|r|mean-rel-error|Lemma30 eps @95%", rows)
}

func runE12(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	delta := 0.5
	var rows [][]string
	for trial := 0; trial < 4; trial++ {
		g := powergraph.ConnectedGNP(10+2*trial, 0.25, rng)
		r := powergraph.BuildDanglingPathReduction(g)
		eps := r.ReductionEpsilon(delta, verify.MatchingLowerBound(g))
		res, err := powergraph.MVCCongest(r.H, eps, &powergraph.Options{Seed: cfg.seed})
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		proj := r.ProjectCover(res.Solution)
		optG := powergraph.Cost(g, powergraph.ExactVC(g))
		rows = append(rows, []string{
			fmt.Sprint(g.N()), fmt.Sprint(g.M()), fmt.Sprintf("%.4f", eps),
			fmt.Sprint(res.Stats.Rounds),
			fmt.Sprintf("%.4f", powergraph.RatioOf(powergraph.Cost(g, proj), optG).Value),
			fmt.Sprintf("%.1f", 1+delta),
		})
	}
	table("n|m|eps-used|rounds-on-H|projected-ratio|1+delta", rows)
}

func runE13(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	okVC, okDS, trials := 0, 0, 10
	for i := 0; i < trials; i++ {
		g := powergraph.GNP(8, 0.4, rng)
		if g.M() == 0 {
			trials--
			continue
		}
		r := powergraph.BuildDanglingPathReduction(g)
		h2 := r.H.Square()
		if powergraph.Cost(h2, powergraph.ExactVC(h2)) == powergraph.Cost(g, powergraph.ExactVC(g))+2*int64(g.M()) {
			okVC++
		}
		mr, err := powergraph.BuildMergedPathReduction(g)
		if err != nil {
			continue
		}
		mh2 := mr.H.Square()
		if powergraph.Cost(mh2, powergraph.ExactDS(mh2)) == powergraph.Cost(g, powergraph.ExactDS(g))+1 {
			okDS++
		}
	}
	table("reduction|verified/trials", [][]string{
		{"Thm 44: VC(H²) = VC(G)+2m", fmt.Sprintf("%d/%d", okVC, trials)},
		{"Thm 45: MDS(H²) = MDS(G)+1", fmt.Sprintf("%d/%d", okDS, trials)},
	})
}

func runE14(cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var rows [][]string
	for _, k := range []int{2, 4} {
		x, y := powergraph.RandomIntersectingPair(k, rng)
		u, err := powergraph.BuildUnweightedMVCGadget(x, y)
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		for _, eps := range []float64{1, 0.05} {
			res, err := powergraph.MVCCongest(u.H, eps, &powergraph.Options{Seed: cfg.seed, CutA: u.Alice})
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			rows = append(rows, []string{
				fmt.Sprint(k), fmt.Sprintf("Alg1 eps=%.2f", eps),
				fmt.Sprint(u.H.N()),
				fmt.Sprint(res.Stats.CutBits),
				fmt.Sprint(res.Stats.Rounds),
			})
		}
		cover, tr := powergraph.Lemma25Cover(u.H, u.Alice)
		feasible, _ := powergraph.IsSquareVertexCover(u.H, cover)
		rows = append(rows, []string{
			fmt.Sprint(k), "Lemma 25 protocol", fmt.Sprint(u.H.N()),
			fmt.Sprint(tr.Total()), fmt.Sprintf("feasible=%v", feasible),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	table("k|protocol|H-vertices|cut-bits|rounds/notes", rows)
}
