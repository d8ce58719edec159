package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeListLimit feeds arbitrary bytes to the edge-list decoder the
// server uses on untrusted bodies. Every input must yield either an error
// or a graph within the vertex limit — never a panic — and an accepted
// graph must survive WriteEdgeList and a re-read with the same vertex
// count, weights and adjacency. Run the short CI pass with
// `make fuzz-graph`.
func FuzzReadEdgeListLimit(f *testing.F) {
	const maxN = 64
	f.Add([]byte("n 4\ne 0 1\ne 1 2\ne 2 3\n"))
	f.Add([]byte("# weighted\nn 3\nw 0 5\nw 2 -1\n\ne 0 2\n"))
	f.Add([]byte("n 0\n"))
	f.Add([]byte("n 65\n"))
	f.Add([]byte("n 2000000000\ne 0 1\n"))
	f.Add([]byte("n -3\n"))
	f.Add([]byte("e 0 1\nn 2\n"))
	f.Add([]byte("n 3\ne 0 1\ne 1 0\n"))
	f.Add([]byte("n 3\ne 1 1\nw 7 2\nx\n"))
	f.Add([]byte("n 2\nn 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeListLimit(bytes.NewReader(data), maxN)
		if err != nil {
			if g != nil {
				t.Fatalf("error %v returned with a graph", err)
			}
			return
		}
		if g.N() > maxN {
			t.Fatalf("accepted n = %d above the limit %d", g.N(), maxN)
		}
		var buf strings.Builder
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeListLimit(strings.NewReader(buf.String()), maxN)
		if err != nil {
			t.Fatalf("re-reading the written graph: %v\n%s", err, buf.String())
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed the size: n %d → %d, m %d → %d", g.N(), h.N(), g.M(), h.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Weight(v) != h.Weight(v) {
				t.Fatalf("round trip changed weight of %d: %d → %d", v, g.Weight(v), h.Weight(v))
			}
			if !slices.Equal(g.Adj(v), h.Adj(v)) {
				t.Fatalf("round trip changed the adjacency of %d: %v → %v", v, g.Adj(v), h.Adj(v))
			}
		}
	})
}
