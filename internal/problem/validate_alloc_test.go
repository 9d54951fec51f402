package problem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tdmroute/internal/baseline"
	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// routedBoard generates a suite board and routes it with the "1st"-style
// baseline router, the cheapest legal topology available.
func routedBoard(tb testing.TB, name string, scale float64) (*problem.Instance, problem.Routing) {
	tb.Helper()
	cfg, err := gen.SuiteConfig(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	routes, err := baseline.RouteShortestPath(in)
	if err != nil {
		tb.Fatal(err)
	}
	return in, routes
}

// TestValidateRoutingAllocsFlat pins ValidateRouting's allocations to a
// constant per call: its scratch is sized by the graph once, so the count
// must not grow with the number of nets checked.
func TestValidateRoutingAllocsFlat(t *testing.T) {
	in, routes := routedBoard(t, "synopsys01", 0.01)
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
	allocs := func(nets int) float64 {
		sub := *in
		sub.Nets = in.Nets[:nets]
		return testing.AllocsPerRun(20, func() {
			if err := problem.ValidateRouting(&sub, routes[:nets]); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, all := allocs(len(in.Nets)/16), allocs(len(in.Nets))
	if all != few || all > 8 {
		t.Fatalf("ValidateRouting allocates %v objects for %d nets and %v for %d, want the same small constant",
			few, len(in.Nets)/16, all, len(in.Nets))
	}
}

// validateRoutingPerNet is the ValidateRouting implementation that built a
// vertex-sized union-find and an edge map for every net. It is kept as the
// reference for the first error and its message.
func validateRoutingPerNet(in *problem.Instance, routes problem.Routing) error {
	if len(routes) != len(in.Nets) {
		return fmt.Errorf("routing has %d nets, instance has %d", len(routes), len(in.Nets))
	}
	ne := in.G.NumEdges()
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
		dsu := graph.NewDSU(in.G.NumVertices())
		seen := make(map[int]bool, len(edges))
		for _, e := range edges {
			if e < 0 || e >= ne {
				return fmt.Errorf("net %d: edge id %d out of range", n, e)
			}
			if seen[e] {
				return fmt.Errorf("net %d: duplicate edge %d", n, e)
			}
			seen[e] = true
			ed := in.G.Edge(e)
			if !dsu.Union(ed.U, ed.V) {
				return fmt.Errorf("net %d: route contains a cycle at edge %d", n, e)
			}
		}
		for _, t := range terms[1:] {
			if !dsu.Same(terms[0], t) {
				return fmt.Errorf("net %d: terminal %d not connected by route", n, t)
			}
		}
	}
	return nil
}

// TestValidateRoutingMatchesReference corrupts a legal routing in seeded
// random ways — dropped, duplicated, foreign and out-of-range edges, emptied,
// swapped and merged routes — and demands the same verdict and message as the
// per-net reference.
func TestValidateRoutingMatchesReference(t *testing.T) {
	in, routes := routedBoard(t, "synopsys01", 0.01)
	ne := in.G.NumEdges()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		r := make(problem.Routing, len(routes))
		for n := range routes {
			r[n] = append([]int(nil), routes[n]...)
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n := rng.Intn(len(r))
			switch rng.Intn(7) {
			case 0:
				if len(r[n]) > 0 {
					i := rng.Intn(len(r[n]))
					r[n] = append(r[n][:i], r[n][i+1:]...)
				}
			case 1:
				if len(r[n]) > 0 {
					r[n] = append(r[n], r[n][rng.Intn(len(r[n]))])
				}
			case 2:
				r[n] = append(r[n], rng.Intn(ne))
			case 3:
				r[n] = append(r[n], []int{ne + rng.Intn(3), -1}[rng.Intn(2)])
			case 4:
				r[n] = nil
			case 5:
				m := rng.Intn(len(r))
				r[n], r[m] = r[m], r[n]
			case 6:
				r[n] = append(r[n], r[rng.Intn(len(r))]...)
			}
		}
		got, want := problem.ValidateRouting(in, r), validateRoutingPerNet(in, r)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: ValidateRouting = %v, reference = %v", trial, got, want)
		}
	}
}

func BenchmarkValidateRouting(b *testing.B) {
	in, routes := routedBoard(b, "synopsys05", 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := problem.ValidateRouting(in, routes); err != nil {
			b.Fatal(err)
		}
	}
}
