package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sameCSR asserts byte-identity of the two graphs' canonical CSR exports,
// weights, and names — the contract the incremental paths promise against a
// fresh build.
func sameCSR(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: (n, m) = (%d, %d), want (%d, %d)", label, got.N(), got.M(), want.N(), want.M())
	}
	if !slices.Equal(got.IndPtr(), want.IndPtr()) {
		t.Fatalf("%s: indptr differs", label)
	}
	if !slices.Equal(got.Indices(), want.Indices()) {
		t.Fatalf("%s: indices differs", label)
	}
	if !slices.Equal(got.weights, want.weights) {
		t.Fatalf("%s: weights differ", label)
	}
	if !slices.Equal(got.names, want.names) {
		t.Fatalf("%s: names differ", label)
	}
}

func TestOverlayInsertDelete(t *testing.T) {
	o := NewOverlay(Path(5)) // edges 0-1, 1-2, 2-3, 3-4
	if o.M() != 4 || o.Pending() != 0 {
		t.Fatalf("m=%d pending=%d", o.M(), o.Pending())
	}
	if err := o.Insert(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	if o.M() != 4 || o.Pending() != 2 {
		t.Fatalf("after edits: m=%d pending=%d", o.M(), o.Pending())
	}
	if !o.HasEdge(0, 2) || !o.HasEdge(2, 0) {
		t.Fatal("inserted edge missing")
	}
	if o.HasEdge(1, 2) || o.HasEdge(2, 1) {
		t.Fatal("deleted edge still present")
	}
	// Inverse edits cancel the staged ones exactly.
	if err := o.Delete(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(2, 1); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending=%d after cancel", o.Pending())
	}
	sameCSR(t, o.Materialize(), Path(5), "cancelled edits")
}

func TestOverlayRejectsBadEdits(t *testing.T) {
	o := NewOverlay(Path(4))
	bad := []struct {
		name string
		err  error
	}{
		{"insert out of range", o.Insert(0, 4)},
		{"insert negative", o.Insert(-1, 2)},
		{"insert self-loop", o.Insert(2, 2)},
		{"insert duplicate base edge", o.Insert(0, 1)},
		{"delete out of range", o.Delete(0, 9)},
		{"delete self-loop", o.Delete(1, 1)},
		{"delete missing edge", o.Delete(0, 3)},
	}
	for _, c := range bad {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := o.Insert(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(0, 2); err == nil {
		t.Error("duplicate staged insert: expected error")
	}
	if err := o.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 2); err == nil {
		t.Error("double delete: expected error")
	}
	if o.Pending() != 0 {
		t.Fatalf("pending=%d, want 0", o.Pending())
	}
}

func TestOverlayApplyRollsBackOnFailure(t *testing.T) {
	o := NewOverlay(Path(5))
	if err := o.Insert(0, 4); err != nil {
		t.Fatal(err)
	}
	before := o.Materialize()
	batch := []EdgeEdit{
		{U: 0, V: 2},            // fine
		{U: 1, V: 2, Del: true}, // fine
		{U: 3, V: 3},            // self-loop: fails
	}
	err := o.Apply(batch)
	if err == nil || !strings.Contains(err.Error(), "edit 2") {
		t.Fatalf("err = %v, want edit-2 failure", err)
	}
	if o.Pending() != 1 {
		t.Fatalf("pending=%d after rollback, want 1", o.Pending())
	}
	sameCSR(t, o.Materialize(), before, "rollback")
	sameCSR(t, o.Materialize(), rebuildWith(Path(5), []EdgeEdit{{U: 0, V: 4}}), "rollback vs rebuild")
	// The rows the failed batch touched are rebuilt once more after a
	// batch that lands.
	if err := o.Apply(batch[:2]); err != nil {
		t.Fatal(err)
	}
	want := rebuildWith(Path(5), append([]EdgeEdit{{U: 0, V: 4}}, batch[:2]...))
	sameCSR(t, o.Materialize(), want, "batch after rollback vs rebuild")
}

// rebuildWith builds g with edits applied from scratch through a Builder:
// the reference the incremental paths are checked against.
func rebuildWith(g *Graph, edits []EdgeEdit) *Graph {
	edges := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		edges[e] = true
	}
	for _, e := range edits {
		key := [2]int{min(e.U, e.V), max(e.U, e.V)}
		edges[key] = !e.Del
	}
	b := NewBuilder(g.N())
	for e, present := range edges {
		if present {
			b.MustAddEdge(e[0], e[1])
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.Weighted() {
			b.SetWeight(v, g.Weight(v))
		}
		if g.names != nil {
			b.SetName(v, g.names[v])
		}
	}
	return b.Build()
}

func TestOverlayMaterializeMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := WithRandomWeights(ConnectedGNP(40, 0.1, rng), 30, rng)
	o := NewOverlay(base)
	// Mirror edge set to drive random valid edits.
	edges := make(map[[2]int]bool)
	for _, e := range base.Edges() {
		edges[e] = true
	}
	for step := 0; step < 300; step++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if edges[key] {
			if err := o.Delete(u, v); err != nil {
				t.Fatal(err)
			}
			delete(edges, key)
		} else {
			if err := o.Insert(u, v); err != nil {
				t.Fatal(err)
			}
			edges[key] = true
		}
		if step%37 == 0 {
			b := NewBuilder(40)
			for e := range edges {
				b.MustAddEdge(e[0], e[1])
			}
			for w := 0; w < 40; w++ {
				b.SetWeight(w, base.Weight(w))
			}
			want := b.Build()
			got := o.Materialize()
			sameCSR(t, got, want, "materialize")
			if got.M() != o.M() {
				t.Fatalf("o.M()=%d, materialized M=%d", o.M(), got.M())
			}
		}
	}
}

func TestOverlayCompact(t *testing.T) {
	o := NewOverlay(Path(20)) // only consecutive vertices are adjacent
	if err := o.Apply([]EdgeEdit{{U: 0, V: 19}, {U: 1, V: 18}}); err != nil {
		t.Fatal(err)
	}
	view := o.Materialize()
	o.Compact(view)
	if o.Pending() != 0 || o.Base() != view {
		t.Fatal("compact did not adopt the view")
	}
	// Edits after compaction still behave.
	if err := o.Delete(0, 19); err != nil {
		t.Fatal(err)
	}
	if o.HasEdge(0, 19) {
		t.Fatal("edge survives delete after compact")
	}
}

// TestIncrementalPowerMatchesFull is the graph-layer half of the churn
// property: after every random batch, the spliced dirty-region power graph
// must be byte-identical to a fresh view.Power(r), for r ∈ 1..4, on both
// unweighted and weighted bases.
func TestIncrementalPowerMatchesFull(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1234))
		// A grid keeps radius-3 balls small relative to n, so small batches
		// exercise the splice path even at r = 4; the large burst still
		// trips the full-recompute fallback.
		base := Grid(20, 20)
		if weighted {
			base = WithRandomWeights(base, 20, rng)
		}
		for r := 1; r <= 4; r++ {
			o := NewOverlay(base)
			view := o.Materialize()
			power := view.Power(r)
			sawFull, sawInc := false, false
			for batchNo := 0; batchNo < 12; batchNo++ {
				size := 1 + rng.Intn(3)
				if batchNo == 5 {
					size = 150 // large burst: should trip the full-recompute fallback at high r
				}
				batch := churnBatch(o, view, size, rng)
				view = o.Materialize()
				var st IncPowerStats
				power, st = IncrementalPower(view, power, r, batch)
				if st.Full {
					sawFull = true
				} else {
					sawInc = true
				}
				sameCSR(t, power, view.Power(r), "incremental power")
			}
			if r >= 2 && !sawFull {
				t.Errorf("r=%d weighted=%v: fallback never exercised", r, weighted)
			}
			if !sawInc {
				t.Errorf("r=%d weighted=%v: splice path never exercised", r, weighted)
			}
		}
	}

	// Above rowsCutoff (no bitset rows), with batches large enough that the
	// appended rows outgrow the G³ slab's room several times: every
	// compaction, and every in-place append between them, must keep both
	// the view and Gʳ exact.
	t.Run("beyond rows cutoff", func(t *testing.T) {
		const r = 3
		rng := rand.New(rand.NewSource(99))
		base := Grid(130, 130)
		if base.N() <= rowsCutoff {
			t.Fatalf("n = %d does not clear rowsCutoff", base.N())
		}
		o := NewOverlay(base)
		view, power := base, base.Power(r)
		var edits []EdgeEdit
		compactions, inPlace := 0, 0
		for batchNo := 0; batchNo < 64; batchNo++ {
			batch := churnBatch(o, view, 40, rng)
			edits = append(edits, batch...)
			view = o.Materialize()
			prev := power.slab
			var st IncPowerStats
			power, st = IncrementalPower(view, power, r, batch)
			if st.Full {
				t.Fatalf("batch %d: full-rebuild fallback at %d dirty rows", batchNo, st.Dirty)
			}
			if power.slab == prev {
				inPlace++
			} else {
				compactions++
			}
			sameCSR(t, power, view.Power(r), "incremental power")
			if batchNo%16 == 15 {
				sameCSR(t, view, rebuildWith(base, edits), "view")
			}
		}
		if compactions < 3 || inPlace == 0 {
			t.Errorf("%d compactions and %d in-place appends, want ≥ 3 and > 0", compactions, inPlace)
		}
	})
}

// TestIncrementalForkedSuccessors forks two successors from one parent, for
// the view (two overlays over it) and for Gʳ: the first extends the
// parent's slab in place, the second must copy, and both equal their full
// rebuilds while the parent's rows stay unchanged.
func TestIncrementalForkedSuccessors(t *testing.T) {
	const r = 2
	for _, base := range []*Graph{Grid(20, 20), Grid(130, 130)} { // below and above rowsCutoff
		rng := rand.New(rand.NewSource(7))
		o := NewOverlay(base)
		first := churnBatch(o, base, 3, rng)
		parentView := o.Materialize()
		parent, _ := IncrementalPower(parentView, base.Power(r), r, first)
		wantView, wantParent := slices.Clone(parentView.Indices()), slices.Clone(parent.Indices())

		var views, kids [2]*Graph
		var batches [2][]EdgeEdit
		for i := range kids {
			fo := NewOverlay(parentView)
			batches[i] = churnBatch(fo, parentView, 3, rng)
			views[i] = fo.Materialize()
			kids[i], _ = IncrementalPower(views[i], parent, r, batches[i])
		}
		if views[0].slab != parentView.slab || kids[0].slab != parent.slab {
			t.Errorf("n=%d: the first successor did not extend its parent's slab in place", base.N())
		}
		if views[1].slab == parentView.slab || kids[1].slab == parent.slab {
			t.Errorf("n=%d: the second successor shares its parent's slab", base.N())
		}
		for i := range kids {
			want := rebuildWith(parentView, batches[i])
			sameCSR(t, views[i], want, "forked view")
			sameCSR(t, kids[i], want.Power(r), "forked power")
		}
		if !slices.Equal(parentView.Indices(), wantView) || !slices.Equal(parent.Indices(), wantParent) {
			t.Errorf("n=%d: forking changed the parent's rows", base.N())
		}
	}
}

// TestIncrementalConcurrentReaders scans old versions' rows from several
// goroutines while churn appends their successors to the same slabs; run
// under -race (make race-serve) it also proves the appends never touch an
// entry an older version can read.
func TestIncrementalConcurrentReaders(t *testing.T) {
	const r = 2
	rng := rand.New(rand.NewSource(3))
	base := Grid(40, 40)
	o := NewOverlay(base)
	batch := churnBatch(o, base, 2, rng)
	view := o.Materialize()
	power, _ := IncrementalPower(view, base.Power(r), r, batch)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, old := range []*Graph{view, power, view, power} {
		want := slices.Clone(old.Indices())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !slices.Equal(old.Indices(), want) {
					t.Error("an old version's rows changed under churn")
					return
				}
			}
		}()
	}
	oldSlab, inPlace := power.slab, 0
	for i := 0; i < 40; i++ {
		batch := churnBatch(o, view, 2, rng)
		view = o.Materialize()
		power, _ = IncrementalPower(view, power, r, batch)
		if power.slab == oldSlab {
			inPlace++
		}
		sameCSR(t, power, view.Power(r), "incremental power")
	}
	close(stop)
	wg.Wait()
	if inPlace == 0 {
		t.Error("no successor appended to the readers' slab")
	}
}

func TestIncrementalPowerEmptyBatch(t *testing.T) {
	g := Path(10)
	p := g.Power(3)
	got, st := IncrementalPower(g, p, 3, nil)
	if got != p || st.Dirty != 0 || st.Full {
		t.Fatalf("empty batch: got %p (want %p), stats %+v", got, p, st)
	}
}

func TestReadEdgeListWeightOutOfRange(t *testing.T) {
	for _, in := range []string{"n 2\nw 5 7", "n 2\nw -1 7"} {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Fatalf("input %q: expected error, got nil", in)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("input %q: error %q lacks line number", in, err)
		}
	}
}

// TestIncrementalPowerAllocsBounded is the allocation guard for copy-on-write
// rows: a small churn batch against a large sparse graph must cost its dirty
// region, not a copy of the whole Gʳ. Averaged over many 8-edit batches from
// one slab compaction on (so whole compaction cycles are counted), staging,
// materializing and updating G³ must allocate under ⅛ of G³'s slab; a
// whole-graph copy per batch is about 1×.
func TestIncrementalPowerAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting at n=20k")
	}
	const r, batches = 3, 128
	g := sparseBench(20_000)
	rng := rand.New(rand.NewSource(5))
	o := NewOverlay(g)
	view, power := g, g.Power(r)
	step := func() {
		batch := churnBatch(o, view, 8, rng)
		view = o.Materialize()
		power, _ = IncrementalPower(view, power, r, batch)
	}
	for step(); power.indptr == nil; step() {
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / batches
	slabBytes := float64(8 * 2 * power.M())
	t.Logf("%.0f B per batch, G³ slab %.0f B (%.3f×)", perBatch, slabBytes, perBatch/slabBytes)
	if perBatch > slabBytes/8 {
		t.Errorf("a batch allocated %.0f B, over ⅛ of the %.0f B G³ slab", perBatch, slabBytes)
	}
}
