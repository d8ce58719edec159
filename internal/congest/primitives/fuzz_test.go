package primitives

import (
	"testing"

	"powergraph/internal/graph"
)

// FuzzSilentHopMax decodes a small graph (at most 12 nodes, any edges,
// possibly disconnected) and mostly-zero values, runs the change-only hop
// maximum at hops 1–4 and a natural or fixed width, stepped and skipping,
// and holds it to the centralized k-hop maximum and to the exact number of
// messages the rule allows (checkSilentHopMax).
//
// Encoding: byte 0 picks n, byte 1 the hops, byte 2 the width; the next n
// bytes are the values (a byte b is b/4 when b%4 == 0, else 0, so about
// three in four are 0); the rest are edge endpoint pairs.
func FuzzSilentHopMax(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0, 8, 1, 2, 3, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{11, 3, 1, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 252, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11})
	f.Add([]byte{7, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%12
		hops := 1 + int(data[1])%4
		width := 0
		if data[2]%2 == 1 {
			width = 12
		}
		data = data[3:]
		vals := make([]int64, n)
		for v := range vals {
			if v < len(data) && data[v]%4 == 0 {
				vals[v] = int64(data[v] / 4)
			}
		}
		data = data[min(n, len(data)):]
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				if _, err := b.AddEdgeIfAbsent(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkSilentHopMax(t, b.Build(), vals, width, hops)
	})
}
