package graph

import (
	"math/rand"
	"testing"
)

// referenceShortestPath is an exhaustive (prune-free) search loop kept as an
// executable specification of the canonical tie contract: every relaxation
// that reaches a vertex at exactly its best-known cost lowers the recorded
// predecessor edge to the smaller id. The paths it reconstructs are a pure
// function of (graph, costs, src, dst) — independent of queue discipline —
// so the production radix engine and the binary-heap oracle, with all their
// pruning, must reproduce it byte for byte. Routing results (and therefore
// solution files) depend on which of two equal-cost paths wins, which makes
// this the byte-identity contract of the whole routing stage.
func referenceShortestPath(d *heapOracle, src, dst int, costFn EdgeCostFunc, pathBuf []int) ([]int, Cost, bool) {
	if src == dst {
		return pathBuf, Cost{}, true
	}
	d.reset()
	d.visit(src, Cost{}, -1)
	d.heap = d.heap[:0]
	d.heap = append(d.heap, dijkstraItem{vertex: src})

	found := false
	for len(d.heap) > 0 {
		it := d.heap.pop()
		u := it.vertex
		if d.done[u] {
			continue
		}
		d.done[u] = true
		if u == dst {
			found = true
			break
		}
		du := d.dist[u]
		for _, arc := range d.g.Adj(u) {
			if d.done[arc.To] {
				continue
			}
			nc := du.Add(costFn(arc.Edge))
			if nc.Less(d.dist[arc.To]) {
				d.visit(arc.To, nc, int32(arc.Edge))
				d.heap.push(dijkstraItem{vertex: arc.To, cost: nc})
			} else if nc == d.dist[arc.To] && d.prevEdge[arc.To] >= 0 && int32(arc.Edge) < d.prevEdge[arc.To] {
				d.prevEdge[arc.To] = int32(arc.Edge)
			}
		}
	}
	if !found {
		return pathBuf, InfCost, false
	}

	return d.path(src, dst, pathBuf), d.dist[dst], true
}

// pathSearcher is the ShortestPath contract shared by the radix engine and
// the heap oracle.
type pathSearcher interface {
	ShortestPath(src, dst int, costFn EdgeCostFunc, pathBuf []int) ([]int, Cost, bool)
}

// checkAgainstReference drives one pruned engine and the reference loop over
// the same query and demands identical paths — not merely equal costs.
func checkAgainstReference(t *testing.T, label string, eng pathSearcher, ref *heapOracle, src, dst int, costFn EdgeCostFunc) {
	t.Helper()
	gotPath, gotCost, gotOK := eng.ShortestPath(src, dst, costFn, nil)
	wantPath, wantCost, wantOK := referenceShortestPath(ref, src, dst, costFn, nil)
	if gotOK != wantOK || gotCost != wantCost {
		t.Fatalf("%s %d->%d: (cost=%+v ok=%v), want (cost=%+v ok=%v)",
			label, src, dst, gotCost, gotOK, wantCost, wantOK)
	}
	if len(gotPath) != len(wantPath) {
		t.Fatalf("%s %d->%d: path %v, want %v", label, src, dst, gotPath, wantPath)
	}
	for i := range gotPath {
		if gotPath[i] != wantPath[i] {
			t.Fatalf("%s %d->%d: path %v, want %v (tie broken differently)",
				label, src, dst, gotPath, wantPath)
		}
	}
}

// TestDijkstraPruneMatchesReference drives the pruned radix engine, the
// pruned heap oracle and the exhaustive reference loop over the same random
// graphs with tiny cost ranges (so equal-cost ties are everywhere) and
// demands identical paths.
func TestDijkstraPruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomConnected(n, rng.Intn(3*n), rng)
		usage := make([]uint64, g.NumEdges())
		for i := range usage {
			usage[i] = uint64(rng.Intn(3)) // small range: force ties
		}
		costFn := func(e int) uint64 { return usage[e] }
		heap := newHeapOracle(g)
		radix := NewDijkstra(g)
		ref := newHeapOracle(g)
		for q := 0; q < 60; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			checkAgainstReference(t, "heap", heap, ref, src, dst, costFn)
			checkAgainstReference(t, "radix", radix, ref, src, dst, costFn)
		}
	}
}

// TestDijkstraGridPruneMatchesReference repeats the equivalence check on a
// grid, the topology with the densest equal-cost tie structure.
func TestDijkstraGridPruneMatchesReference(t *testing.T) {
	g := grid(12, 12)
	usage := make([]uint64, g.NumEdges())
	costFn := func(e int) uint64 { return usage[e] }
	heap := newHeapOracle(g)
	radix := NewDijkstra(g)
	ref := newHeapOracle(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(34))
	for q := 0; q < 200; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		checkAgainstReference(t, "heap", heap, ref, src, dst, costFn)
		checkAgainstReference(t, "radix", radix, ref, src, dst, costFn)
	}
}

// TestDijkstraSearchZeroAlloc pins the steady state of the search loop at
// zero allocations per query: the engine's buffers are grown once and then
// reused for the life of the session.
func TestDijkstraSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := grid(20, 20)
	usage := make([]uint64, g.NumEdges())
	costFn := func(e int) uint64 { return usage[e] }
	t.Run("radix", func(t *testing.T) {
		d := NewDijkstra(g)
		buf := make([]int, 0, 256)
		dst := g.NumVertices() - 1
		// Warm-up queries grow the queue and touched list to steady state.
		for i := 0; i < 4; i++ {
			buf, _, _ = d.ShortestPath(0, dst, costFn, buf[:0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf, _, _ = d.ShortestPath(0, dst, costFn, buf[:0])
		})
		if allocs != 0 {
			t.Fatalf("ShortestPath steady state allocates %v objects per run, want 0", allocs)
		}
	})
}
