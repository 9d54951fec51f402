package graph

import (
	"slices"
	"testing"
)

// heapOracle is the binary-heap search engine ShortestPath ran on before the
// monotone radix queue became its only engine. It is kept verbatim as a test
// oracle: both engines settle vertices in non-decreasing (Primary, Hops)
// order, prune at the target the same way and resolve equal-cost ties by the
// canonical smallest-edge-id rule, so the radix engine must reproduce its
// paths byte for byte.
type heapOracle struct {
	g        *Graph
	dist     []Cost
	prevEdge []int32
	touched  []int
	heap     dijkstraHeap
	done     []bool
}

func newHeapOracle(g *Graph) *heapOracle {
	n := g.NumVertices()
	d := &heapOracle{
		g:        g,
		dist:     make([]Cost, n),
		prevEdge: make([]int32, n),
		done:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		d.dist[i] = InfCost
		d.prevEdge[i] = -1
	}
	return d
}

// ShortestPath has the contract of Dijkstra.ShortestPath.
func (d *heapOracle) ShortestPath(src, dst int, costFn EdgeCostFunc, pathBuf []int) ([]int, Cost, bool) {
	if src == dst {
		return pathBuf, Cost{}, true
	}
	d.reset()
	d.visit(src, Cost{}, -1)
	if !d.runHeap(src, dst, costFn) {
		return pathBuf, InfCost, false
	}
	return d.path(src, dst, pathBuf), d.dist[dst], true
}

// runHeap is the binary-heap search loop.
func (d *heapOracle) runHeap(src, dst int, costFn EdgeCostFunc) bool {
	d.heap = d.heap[:0]
	d.heap = append(d.heap, dijkstraItem{vertex: src})
	for len(d.heap) > 0 {
		it := d.heap.pop()
		u := it.vertex
		if d.done[u] {
			continue
		}
		d.done[u] = true
		if u == dst {
			return true
		}
		du := d.dist[u]
		bound := d.dist[dst]
		if bound != InfCost && !du.Less(bound) {
			continue
		}
		for _, arc := range d.g.Adj(u) {
			to := arc.To
			if d.done[to] {
				continue
			}
			nc := du.Add(costFn(arc.Edge))
			if nc.Less(d.dist[to]) {
				if to != dst && bound != InfCost && !nc.Less(bound) {
					continue
				}
				d.visit(to, nc, int32(arc.Edge))
				d.heap.push(dijkstraItem{vertex: to, cost: nc})
			} else if nc == d.dist[to] && d.prevEdge[to] >= 0 && int32(arc.Edge) < d.prevEdge[to] {
				d.prevEdge[to] = int32(arc.Edge)
			}
		}
	}
	return false
}

// path appends the src→dst edges recorded by the last search to pathBuf.
func (d *heapOracle) path(src, dst int, pathBuf []int) []int {
	start := len(pathBuf)
	for v := dst; v != src; {
		eid := d.prevEdge[v]
		pathBuf = append(pathBuf, int(eid))
		v = d.g.Edge(int(eid)).Other(v)
	}
	for i, j := start, len(pathBuf)-1; i < j; i, j = i+1, j-1 {
		pathBuf[i], pathBuf[j] = pathBuf[j], pathBuf[i]
	}
	return pathBuf
}

func (d *heapOracle) visit(v int, c Cost, via int32) {
	if d.dist[v] == InfCost && !d.done[v] {
		d.touched = append(d.touched, v)
	}
	d.dist[v] = c
	d.prevEdge[v] = via
}

func (d *heapOracle) reset() {
	for _, v := range d.touched {
		d.dist[v] = InfCost
		d.prevEdge[v] = -1
		d.done[v] = false
	}
	d.touched = d.touched[:0]
}

// FuzzShortestPathOracle decodes small multigraphs — parallel edges, self
// loops, per-edge costs in 0..3 so that equal-cost ties and zero-cost
// (own-edge) arcs are everywhere — and demands that the radix engine returns
// exactly the oracle's path, cost and reachability for every query.
//
// Input layout: data[0] sizes the graph (2..17 vertices); then triples
// (u, v, cost) add edges until a zero byte or the input ends; the remaining
// byte pairs are (src, dst) queries.
func FuzzShortestPathOracle(f *testing.F) {
	f.Add([]byte{4, 1, 2, 0, 1, 2, 1, 2, 3, 0, 0, 0, 1, 3, 2, 0})
	f.Add([]byte{6, 1, 2, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 1, 4, 2, 4, 5, 0, 5, 6, 0, 0, 0, 5, 1, 6, 6, 1})
	f.Add([]byte{3, 1, 1, 0, 2, 2, 3, 0, 0, 1, 1, 2})
	f.Add([]byte{16, 1, 2, 3, 3, 4, 3, 5, 6, 1, 7, 8, 0, 8, 9, 2, 2, 9, 1, 0, 1, 9, 3, 8, 5, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%16
		data = data[1:]
		g := New(n, len(data)/3)
		var costs []uint64
		for len(data) >= 3 && data[0] != 0 {
			g.AddEdge(int(data[0])%n, int(data[1])%n)
			costs = append(costs, uint64(data[2]%4))
			data = data[3:]
		}
		if len(data) > 0 {
			data = data[1:]
		}
		costFn := func(e int) uint64 { return costs[e] }
		radix := NewDijkstra(g)
		oracle := newHeapOracle(g)
		var got, want []int
		for ; len(data) >= 2; data = data[2:] {
			src, dst := int(data[0])%n, int(data[1])%n
			var gotCost, wantCost Cost
			var gotOK, wantOK bool
			got, gotCost, gotOK = radix.ShortestPath(src, dst, costFn, got[:0])
			want, wantCost, wantOK = oracle.ShortestPath(src, dst, costFn, want[:0])
			if gotOK != wantOK || gotCost != wantCost || !slices.Equal(got, want) {
				t.Fatalf("%d->%d: radix (path=%v cost=%+v ok=%v), oracle (path=%v cost=%+v ok=%v)",
					src, dst, got, gotCost, gotOK, want, wantCost, wantOK)
			}
		}
	})
}
