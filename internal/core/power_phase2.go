package core

import (
	"powergraph/internal/bitset"
	"powergraph/internal/congest"
	"powergraph/internal/congest/primitives"
	"powergraph/internal/graph"
)

// Gʳ Phase II: the parametric generalization of Lemma 2/3's gather.
//
// For r = 2 the algorithms keep the paper's exact wire format: every node
// reports its live neighbors as F-edges and the leader squares the union
// (Lemma 3). That reconstruction is a G²-specific trick — a G-path of
// length ≤ 2 between U-vertices has both edges incident to U, so F suffices.
// For general r a shortest ≤ r path between U-vertices may route through
// vertices far from U, but every edge of such a path has an endpoint within
// d = ⌊(r-1)/2⌋ hops of U. The generalized gather therefore
//
//  1. labels the near-U region with the layered StepSparsify flood
//     (truncated U-distance layers in exactly primitives.SparsifyRounds(r)
//     communication rounds; silent at r ≤ 4 where the seeded 1-ball
//     already resolves the certificates),
//  2. has every near node report its certificate subset of incident
//     G-edges — each edge that can lie on a ≤ r-hop U-to-U path, shipped
//     once by a designated endpoint (see primitives/sparsify.go) — and
//     every U-member a self-pair marking membership, and
//  3. lets the leader rebuild the subgraph, take its r-th power, and induce
//     on U — which equals Gʳ[U] exactly, because the reported edges contain
//     a witness for every ≤ r U-to-U path and nothing that is not a real
//     G-edge (TestLeaderRebuildsInducedPower checks the rebuilt graph
//     against g.Power(r).InducedSubgraph(U) directly).
//
// The |F| = O(n/ε) bound of Lemma 2 is G²-specific; shipping every
// incident edge of every near node would cost O(m) items in the worst case.
// The certificate stream is duplicate-free and drops every edge no ≤ r-hop
// U-to-U path can use, which is what makes the r ∈ {3,4} sweeps of
// specs/sparsify-sweep.json tractable (BENCH_sparsify.json). Correctness
// and the (1+ε) charging argument are power-independent: Phase I only ever
// commits 1-hop neighborhoods, which are cliques of every Gʳ with r ≥ 2.

// powerEdgeItems encodes a node's generalized Phase-II contribution once sp
// is done: near nodes report their certificate G-edges as (id, u) pairs,
// and U-members add an (id, id) self-pair marking membership (edges alone
// must not imply membership — a relay's edges name vertices outside U). The
// certificate ships almost every edge once; only the r = 4 blind keep can
// name a shell-internal edge from both ends, which the leader's rebuild
// dedups.
func powerEdgeItems(nd *congest.Node, sp *primitives.StepSparsify, inU bool) []congest.Message {
	nbrs := sp.Certificate(nd)
	if len(nbrs) == 0 && !inU {
		return nil
	}
	items := make([]congest.Message, 0, len(nbrs)+1)
	for _, u := range nbrs {
		items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(u)))
	}
	if inU {
		items = append(items, congest.NewPair(nd.N(), int64(nd.ID()), int64(nd.ID())))
	}
	return items
}

// leaderSolvePowerRemainder rebuilds Gʳ[U] from the generalized gather —
// self-pairs mark U-membership, other pairs are G-edges — and returns the
// configured solver's cover of it, in original ids. With the default
// kernelize-then-solve solver (internal/kernel) the reconstructed instance
// is reduced to its hard core before any branching, which is what lets the
// leader absorb essentially-all-of-Gʳ gathers on sparse thousand-node runs.
func leaderSolvePowerRemainder(n, r int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	b := graph.NewBuilder(n)
	for _, p := range gathered {
		if p.A == p.B {
			u.Add(int(p.A))
			continue
		}
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err) // malformed item: an engine/protocol bug, not user input
		}
	}
	return solvePowerInduced(n, r, b, u, solver)
}

// solvePowerInduced is the shared tail of the generalized leader solves:
// power the reported subgraph, induce on U, solve, and translate the cover
// back to original ids.
func solvePowerInduced(n, r int, b *graph.Builder, u *bitset.Set, solver LocalSolver) *bitset.Set {
	h, orig := b.Build().Power(r).InducedSubgraph(u)
	local := solver(h)
	out := bitset.New(n)
	local.ForEach(func(i int) bool {
		out.Add(orig[i])
		return true
	})
	return out
}

// leaderSolveWeightedPowerRemainder is the weighted form: weight reports
// mark U-membership (every live vertex sends one), edge reports carry no
// membership information.
func leaderSolveWeightedPowerRemainder(n, r int, gathered []congest.Message, solver LocalSolver) *bitset.Set {
	u := bitset.New(n)
	weights := make(map[int]int64)
	b := graph.NewBuilder(n)
	for _, p := range gathered {
		if p.Kind == kindWeightItem {
			u.Add(int(p.A))
			weights[int(p.A)] = p.B
			continue
		}
		if _, err := b.AddEdgeIfAbsent(int(p.A), int(p.B)); err != nil {
			panic(err)
		}
	}
	for v, w := range weights {
		b.SetWeight(v, w)
	}
	return solvePowerInduced(n, r, b, u, solver)
}
