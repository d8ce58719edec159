package graph

import (
	"fmt"
	"slices"
)

// EdgeEdit is one staged mutation of an overlay: insertion (Del == false) or
// deletion (Del == true) of the undirected edge {U, V}.
type EdgeEdit struct {
	U, V int
	Del  bool
}

// Overlay is a mutable delta view over an immutable base Graph: edge
// insertions and deletions are staged in per-vertex delta sets and merged
// with the base rows on Materialize, which rebuilds only the rows of
// vertices touched since the previous Materialize. The base and every
// materialized graph never change, so previously materialized graphs (and
// anything derived from them — power graphs, running simulations) stay valid
// while the overlay keeps moving.
//
// Invariants maintained by Insert/Delete:
//
//   - added ∩ E(base) = ∅ (an added edge is never already in the base)
//   - removed ⊆ E(base) (only base edges can be removed)
//   - added ∩ removed = ∅
//
// Deleting an added edge un-adds it; inserting a removed edge un-removes it.
// Pending() counts the staged differences from the base, which is the
// quantity a compaction threshold should watch: it can only grow to
// m(base) + m(added), never unboundedly with churn volume.
//
// Overlay is not safe for concurrent use; callers serialize access.
type Overlay struct {
	base    *Graph
	added   map[int]map[int]struct{} // v -> neighbors added to v's row
	removed map[int]map[int]struct{} // v -> neighbors removed from v's row
	pending int                      // staged edge-level differences from base
	view    *Graph                   // the last materialized view (base until the first)
	touched map[int]struct{}         // vertices whose rows changed since view
}

// NewOverlay returns an overlay with no staged edits over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:    base,
		added:   make(map[int]map[int]struct{}),
		removed: make(map[int]map[int]struct{}),
		view:    base,
		touched: make(map[int]struct{}),
	}
}

// Base returns the immutable graph the overlay's deltas apply to.
func (o *Overlay) Base() *Graph { return o.base }

// N returns the vertex count (fixed: overlays edit edges, not vertices).
func (o *Overlay) N() int { return o.base.n }

// M returns the edge count of the current view.
func (o *Overlay) M() int {
	m := o.base.m
	for _, s := range o.added {
		m += len(s)
	}
	for _, s := range o.removed {
		m -= len(s)
	}
	// added/removed store both directions; each edge contributes 2.
	return o.base.m + (m-o.base.m)/2
}

// Pending returns the number of staged edge-level differences from the base.
func (o *Overlay) Pending() int { return o.pending }

// HasEdge reports whether {u, v} is an edge of the current view.
func (o *Overlay) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if _, ok := o.added[u][v]; ok {
		return true
	}
	if _, ok := o.removed[u][v]; ok {
		return false
	}
	return o.base.HasEdge(u, v)
}

// Insert stages the insertion of edge {u, v} into the view. It rejects
// out-of-range endpoints, self-loops, and edges already present in the view.
func (o *Overlay) Insert(u, v int) error {
	if u < 0 || u >= o.base.n || v < 0 || v >= o.base.n {
		return fmt.Errorf("graph: insert {%d,%d} out of range [0,%d)", u, v, o.base.n)
	}
	if u == v {
		return fmt.Errorf("graph: insert self-loop at %d", u)
	}
	if _, ok := o.removed[u][v]; ok { // re-inserting a removed base edge
		o.unstage(o.removed, u, v)
		o.pending--
		return nil
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("graph: insert duplicate edge {%d,%d}", u, v)
	}
	o.stage(o.added, u, v)
	o.pending++
	return nil
}

// Delete stages the deletion of edge {u, v} from the view. It rejects
// out-of-range endpoints, self-loops, and edges absent from the view.
func (o *Overlay) Delete(u, v int) error {
	if u < 0 || u >= o.base.n || v < 0 || v >= o.base.n {
		return fmt.Errorf("graph: delete {%d,%d} out of range [0,%d)", u, v, o.base.n)
	}
	if u == v {
		return fmt.Errorf("graph: delete self-loop at %d", u)
	}
	if _, ok := o.added[u][v]; ok { // deleting a staged insertion
		o.unstage(o.added, u, v)
		o.pending--
		return nil
	}
	if _, ok := o.removed[u][v]; ok {
		return fmt.Errorf("graph: delete missing edge {%d,%d}", u, v)
	}
	if !o.base.HasEdge(u, v) {
		return fmt.Errorf("graph: delete missing edge {%d,%d}", u, v)
	}
	o.stage(o.removed, u, v)
	o.pending++
	return nil
}

func (o *Overlay) stage(m map[int]map[int]struct{}, u, v int) {
	o.touch(u, v)
	for _, p := range [2][2]int{{u, v}, {v, u}} {
		s := m[p[0]]
		if s == nil {
			s = make(map[int]struct{})
			m[p[0]] = s
		}
		s[p[1]] = struct{}{}
	}
}

func (o *Overlay) unstage(m map[int]map[int]struct{}, u, v int) {
	o.touch(u, v)
	for _, p := range [2][2]int{{u, v}, {v, u}} {
		delete(m[p[0]], p[1])
		if len(m[p[0]]) == 0 {
			delete(m, p[0])
		}
	}
}

// touch marks the rows of u and v for rebuilding on the next Materialize.
func (o *Overlay) touch(u, v int) {
	o.touched[u] = struct{}{}
	o.touched[v] = struct{}{}
}

// Apply stages every edit in order. On the first failure it rolls back the
// already-applied prefix (insert and delete are exact inverses under the
// overlay's state transitions) and returns an error identifying the failing
// edit by index, so a batch either lands whole or not at all.
func (o *Overlay) Apply(edits []EdgeEdit) error {
	for i, e := range edits {
		var err error
		if e.Del {
			err = o.Delete(e.U, e.V)
		} else {
			err = o.Insert(e.U, e.V)
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				u := edits[j]
				if u.Del {
					if ierr := o.Insert(u.U, u.V); ierr != nil {
						panic(fmt.Sprintf("graph: overlay rollback failed: %v", ierr))
					}
				} else {
					if derr := o.Delete(u.U, u.V); derr != nil {
						panic(fmt.Sprintf("graph: overlay rollback failed: %v", derr))
					}
				}
			}
			return fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return nil
}

// appendViewRow appends the sorted neighbor row of v in the current view.
func (o *Overlay) appendViewRow(dst []int, v int) []int {
	start := len(dst)
	rem := o.removed[v]
	for _, u := range o.base.Adj(v) {
		if _, gone := rem[u]; !gone {
			dst = append(dst, u)
		}
	}
	for u := range o.added[v] {
		dst = append(dst, u)
	}
	slices.Sort(dst[start:])
	return dst
}

// Materialize returns an immutable Graph of the current view. Only the rows
// of vertices touched since the previous Materialize are merged from the
// base row and the staged deltas; the result shares every other row, and
// the base's weights and names, with the previous view, at a cost of O(n)
// plus the touched rows (see withRows). With nothing touched it returns the
// previous view itself. The overlay keeps its deltas; use Compact to also
// adopt the result as the new base.
func (o *Overlay) Materialize() *Graph {
	if len(o.touched) == 0 {
		return o.view
	}
	vs := make([]int, 0, len(o.touched))
	for v := range o.touched {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	o.view = o.view.withRows(vs, o.appendViewRow)
	clear(o.touched)
	return o.view
}

// Compact adopts view (which must be a graph previously returned by
// Materialize with no edits staged since) as the overlay's new base and
// clears all staged deltas. Callers trigger it when Pending crosses a
// threshold so view-row merging stays cheap under sustained churn.
func (o *Overlay) Compact(view *Graph) {
	o.base = view
	o.view = view
	o.added = make(map[int]map[int]struct{})
	o.removed = make(map[int]map[int]struct{})
	clear(o.touched)
	o.pending = 0
}
