package route

import (
	"context"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

func TestMehlhornInitialRoutingValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(12, 10, 60, 25, seed)
		routes, _, err := Route(context.Background(), in, Options{InitialSteiner: SteinerMehlhorn})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMehlhornRerouteValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(12, 10, 60, 25, seed)
		routes, stats, err := Route(context.Background(), in, Options{RerouteSteiner: SteinerMehlhorn, RipUpRounds: 4, KeepWorse: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.RippedNets == 0 {
			t.Errorf("seed %d: no rip-up happened", seed)
		}
	}
}

func TestMehlhornDisconnectedError(t *testing.T) {
	// 4-ring plus an isolated vertex 4: a net touching the island must
	// fail under either construction.
	g := graph.New(5, 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{0, 4}}},
	}
	in.RebuildNetGroups()
	if _, _, err := Route(context.Background(), in, Options{InitialSteiner: SteinerMehlhorn}); err == nil {
		t.Error("Mehlhorn routing of disconnected terminals succeeded")
	}
}

func TestOrderAblationThetaNotWorse(t *testing.T) {
	// θ-ascending ordering should produce a max-φ estimate no worse, on
	// average, than netlist order (the Sec. III-A claim). Summed over
	// seeds to absorb noise.
	var thetaTotal, idTotal int64
	for seed := int64(0); seed < 6; seed++ {
		in := randomInstance(10, 8, 80, 30, 200+seed)
		rt, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, Order: OrderThetaAsc})
		if err != nil {
			t.Fatal(err)
		}
		rid, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, Order: OrderNetID})
		if err != nil {
			t.Fatal(err)
		}
		thetaTotal += maxPhi(in, rt)
		idTotal += maxPhi(in, rid)
	}
	if thetaTotal > idTotal+idTotal/10 {
		t.Errorf("θ ordering clearly worse than netlist order: %d vs %d", thetaTotal, idTotal)
	}
	t.Logf("max-φ totals: θ-asc=%d netlist=%d", thetaTotal, idTotal)
}

func TestOrderVariantsAllValid(t *testing.T) {
	in := randomInstance(10, 8, 50, 20, 3)
	for _, ord := range []NetOrder{OrderThetaAsc, OrderNetID, OrderThetaDesc} {
		routes, _, err := Route(context.Background(), in, Options{Order: ord})
		if err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
	}
}

func TestMehlhornAndKMBSimilarQuality(t *testing.T) {
	// Both are 2-approximations; their congestion estimates should be in
	// the same ballpark (within 2x of each other summed over seeds).
	var kmb, mehl int64
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(12, 12, 80, 30, 300+seed)
		a, _, err := Route(context.Background(), in, Options{RipUpRounds: -1})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, InitialSteiner: SteinerMehlhorn})
		if err != nil {
			t.Fatal(err)
		}
		kmb += maxPhi(in, a)
		mehl += maxPhi(in, b)
	}
	if mehl > 2*kmb || kmb > 2*mehl {
		t.Errorf("quality diverged: KMB φ=%d, Mehlhorn φ=%d", kmb, mehl)
	}
	t.Logf("max-φ totals: KMB=%d Mehlhorn=%d", kmb, mehl)
}

func BenchmarkRouteKMBvsMehlhorn(b *testing.B) {
	in := randomInstance(40, 60, 2000, 800, 1)
	b.Run("KMB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Route(context.Background(), in, Options{RipUpRounds: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Mehlhorn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, InitialSteiner: SteinerMehlhorn}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestRerouteNetsKeepsValidity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(12, 10, 60, 25, 400+seed)
		routes, _, err := Route(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Rip a handful of nets and reroute them against the rest.
		nets := []int{0, 5, 10, 15}
		if err := rerouteNets(context.Background(), in, routes, nets, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRerouteNetsMismatched(t *testing.T) {
	in := randomInstance(8, 5, 10, 4, 1)
	if err := rerouteNets(context.Background(), in, make(problem.Routing, 3), []int{0}, Options{}); err == nil {
		t.Error("mismatched routing accepted")
	}
}

func TestRerouteNetsMehlhorn(t *testing.T) {
	in := randomInstance(12, 10, 40, 15, 2)
	routes, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rerouteNets(context.Background(), in, routes, []int{1, 3}, Options{RerouteSteiner: SteinerMehlhorn}); err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
}
