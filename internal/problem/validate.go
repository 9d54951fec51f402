package problem

import (
	"errors"
	"fmt"

	"tdmroute/internal/graph"
)

// ErrDisconnected reports an instance whose FPGA graph cannot carry its
// multi-FPGA nets. It is a semantic (not structural) defect: parsers accept
// such instances, ValidateInstance rejects them, and routers would fail on
// them.
var ErrDisconnected = errors.New("FPGA graph is not connected but multi-FPGA nets exist")

// ValidateInstance checks structural well-formedness of an instance:
// non-empty connected FPGA graph (when any net needs routing), in-range and
// distinct terminals, in-range sorted group members, and consistent
// Net.Groups back-references.
func ValidateInstance(in *Instance) error {
	nv := in.G.NumVertices()
	for i := range in.Nets {
		terms := in.Nets[i].Terminals
		if len(terms) == 0 {
			return fmt.Errorf("net %d has no terminals", i)
		}
		seen := make(map[int]bool, len(terms))
		for _, t := range terms {
			if t < 0 || t >= nv {
				return fmt.Errorf("net %d: terminal %d out of range [0,%d)", i, t, nv)
			}
			if seen[t] {
				return fmt.Errorf("net %d: duplicate terminal %d", i, t)
			}
			seen[t] = true
		}
	}
	for gi := range in.Groups {
		members := in.Groups[gi].Nets
		if len(members) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		for j, n := range members {
			if n < 0 || n >= len(in.Nets) {
				return fmt.Errorf("group %d: net %d out of range", gi, n)
			}
			if j > 0 && members[j] <= members[j-1] {
				return fmt.Errorf("group %d: members not sorted/unique at position %d", gi, j)
			}
		}
	}
	// Back-references must match group membership exactly.
	want := make([][]int, len(in.Nets))
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			want[n] = append(want[n], gi)
		}
	}
	for i := range in.Nets {
		got := in.Nets[i].Groups
		if len(got) != len(want[i]) {
			return fmt.Errorf("net %d: Groups back-reference has %d entries, want %d (call RebuildNetGroups)", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				return fmt.Errorf("net %d: Groups back-reference mismatch at %d", i, j)
			}
		}
	}
	if needsRouting(in) && !in.G.Connected() {
		return ErrDisconnected
	}
	return nil
}

func needsRouting(in *Instance) bool {
	for i := range in.Nets {
		if len(in.Nets[i].Terminals) > 1 {
			return true
		}
	}
	return false
}

// ValidateRouting checks that routes is a legal topology for in: one route
// per net, edge ids in range, each route a cycle-free connected tree whose
// vertex set contains all the net's terminals, with no duplicate edges.
func ValidateRouting(in *Instance, routes Routing) error {
	if len(routes) != len(in.Nets) {
		return fmt.Errorf("routing has %d nets, instance has %d", len(routes), len(in.Nets))
	}
	ne := in.G.NumEdges()
	tc := newTreeCheck(in.G)
	for n, edges := range routes {
		terms := in.Nets[n].Terminals
		if len(terms) <= 1 {
			if len(edges) != 0 {
				return fmt.Errorf("net %d: single-terminal net has %d edges", n, len(edges))
			}
			continue
		}
		if len(edges) == 0 {
			return fmt.Errorf("net %d: multi-terminal net is unrouted", n)
		}
		tc.begin(len(edges), len(terms))
		for _, e := range edges {
			if e < 0 || e >= ne {
				return fmt.Errorf("net %d: edge id %d out of range", n, e)
			}
			if !tc.addEdge(e) {
				return fmt.Errorf("net %d: duplicate edge %d", n, e)
			}
			ed := in.G.Edge(e)
			if !tc.union(ed.U, ed.V) {
				return fmt.Errorf("net %d: route contains a cycle at edge %d", n, e)
			}
		}
		for _, t := range terms[1:] {
			if !tc.same(terms[0], t) {
				return fmt.Errorf("net %d: terminal %d not connected by route", n, t)
			}
		}
	}
	return nil
}

// treeCheck is the per-net scratch of the route-tree checks, shared by all
// nets of one routing so that a check allocates O(V+E) once rather than a
// vertex-sized union-find and an edge set per net. Entries are tagged with
// the current net's stamp, so nothing is cleared between nets, and the
// union-find runs over net-local vertex ids, so resetting it costs only the
// vertices one net can touch.
type treeCheck struct {
	stamp    int
	edgeMark []int // stamp of the net whose route last contained the edge
	vertMark []int // stamp of the net that last gave the vertex a local id
	local    []int // the vertex's local id within that net
	next     int   // next unused local id
	dsu      graph.DSU
}

func newTreeCheck(g *graph.Graph) *treeCheck {
	tc := &treeCheck{
		edgeMark: make([]int, g.NumEdges()),
		vertMark: make([]int, g.NumVertices()),
		local:    make([]int, g.NumVertices()),
	}
	tc.dsu.Reset(g.NumVertices()) // full size up front: later resets reuse it
	return tc
}

// begin starts the next net, whose route has edges edges and whose net has
// terms terminals.
func (tc *treeCheck) begin(edges, terms int) {
	tc.stamp++
	tc.next = 0
	ids := len(tc.vertMark)
	if k := 2*edges + terms; k < ids {
		ids = k
	}
	tc.dsu.Reset(ids)
}

// addEdge records edge e in the current route and reports false when the
// route already contained it.
func (tc *treeCheck) addEdge(e int) bool {
	if tc.edgeMark[e] == tc.stamp {
		return false
	}
	tc.edgeMark[e] = tc.stamp
	return true
}

// id returns v's local id in the current net, assigning the next one on
// first use.
func (tc *treeCheck) id(v int) int {
	if tc.vertMark[v] != tc.stamp {
		tc.vertMark[v] = tc.stamp
		tc.local[v] = tc.next
		tc.next++
	}
	return tc.local[v]
}

// union joins u and v and reports false when they were already connected.
func (tc *treeCheck) union(u, v int) bool { return tc.dsu.Union(tc.id(u), tc.id(v)) }

// same reports whether the current route connects u and v.
func (tc *treeCheck) same(u, v int) bool { return tc.dsu.Same(tc.id(u), tc.id(v)) }

// ValidateSolution checks routing legality plus the TDM ratio constraints of
// Sec. II-A: every ratio a positive even integer, and on every edge the
// reciprocals of the ratios of the nets routed through it sum to at most 1.
func ValidateSolution(in *Instance, sol *Solution) error {
	if err := ValidateRouting(in, sol.Routes); err != nil {
		return err
	}
	if len(sol.Assign.Ratios) != len(sol.Routes) {
		return fmt.Errorf("assignment has %d nets, routing has %d", len(sol.Assign.Ratios), len(sol.Routes))
	}
	for n, edges := range sol.Routes {
		if len(sol.Assign.Ratios[n]) != len(edges) {
			return fmt.Errorf("net %d: %d ratios for %d edges", n, len(sol.Assign.Ratios[n]), len(edges))
		}
		for k, r := range sol.Assign.Ratios[n] {
			if r < 2 || r%2 != 0 {
				return fmt.Errorf("net %d edge %d: ratio %d is not a positive even integer", n, sol.Routes[n][k], r)
			}
		}
	}
	// Per-edge capacity: sum of reciprocals <= 1. Verified exactly in
	// integers: sum(1/r_i) <= 1  <=>  sum(L/r_i) <= L for L = lcm — too
	// costly; instead verify with float64 and a conservative epsilon, then
	// confirm borderline edges with a big-rational check.
	loads := EdgeLoads(in.G.NumEdges(), sol.Routes)
	for e, ls := range loads {
		var sum float64
		for _, l := range ls {
			sum += 1.0 / float64(sol.Assign.Ratios[l.Net][l.Pos])
		}
		const eps = 1e-9
		if sum > 1+eps {
			return fmt.Errorf("edge %d: reciprocal sum %.12f exceeds 1", e, sum)
		}
		if sum > 1-eps { // borderline: confirm exactly
			if !reciprocalSumAtMostOne(ls, sol.Assign.Ratios) {
				return fmt.Errorf("edge %d: reciprocal sum exceeds 1 (exact check)", e)
			}
		}
	}
	return nil
}

// reciprocalSumAtMostOne checks sum over loads of 1/ratio <= 1 exactly using
// a running fraction num/den in big-int-free form: it maintains the sum as a
// pair (num, den) reduced by GCD at each step. Ratios are bounded (<= 2^40
// in practice) and edges carry at most a few thousand nets, so den fits in
// int64 after reduction in realistic cases; on overflow it falls back to a
// conservative false.
func reciprocalSumAtMostOne(ls []EdgeLoad, ratios [][]int64) bool {
	var num, den int64 = 0, 1
	for _, l := range ls {
		r := ratios[l.Net][l.Pos]
		// sum = num/den + 1/r = (num*r + den) / (den*r)
		nr, ok1 := mulInt64(num, r)
		dr, ok2 := mulInt64(den, r)
		if !ok1 || !ok2 {
			return false
		}
		num = nr + den
		den = dr
		g := gcd64(num, den)
		num /= g
		den /= g
		if num > den {
			return false
		}
	}
	return num <= den
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
