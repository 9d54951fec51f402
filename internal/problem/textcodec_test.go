package problem_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"tdmroute/internal/problem"
)

// codecBoard is the eco-serve base board, synopsys04 @0.02, with a
// shortest-path routing and even ratios: the solution text the serving
// tiers render, digest and re-parse on every job.
func codecBoard(b *testing.B) (*problem.Instance, *problem.Solution) {
	b.Helper()
	in, routes := routedBoard(b, "synopsys04", 0.02)
	sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: make([][]int64, len(routes))}}
	for n, edges := range routes {
		for k := range edges {
			sol.Assign.Ratios[n] = append(sol.Assign.Ratios[n], int64(2*(1+(n+k)%97)))
		}
	}
	return in, sol
}

func BenchmarkParseSolution(b *testing.B) {
	in, sol := codecBoard(b)
	var text bytes.Buffer
	if err := problem.WriteSolution(&text, sol); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problem.ParseSolution(bytes.NewReader(text.Bytes()), in.G.NumEdges()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSolution(b *testing.B) {
	_, sol := codecBoard(b)
	var text bytes.Buffer
	if err := problem.WriteSolution(&text, sol); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := problem.WriteSolution(io.Discard, sol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseInstance(b *testing.B) {
	in, _ := codecBoard(b)
	var text bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problem.ParseInstance(in.Name, bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteInstance(b *testing.B) {
	in, _ := codecBoard(b)
	var text bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := problem.WriteInstance(io.Discard, in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseSolutionAllocsFlat pins ParseSolution's allocations to a count
// that does not grow per net: lists come out of shared slabs and repeats
// are found through one stamp array, so ten times the nets cost only a few
// more chunk allocations.
func TestParseSolutionAllocsFlat(t *testing.T) {
	const numEdges = 2000
	rng := rand.New(rand.NewSource(3))
	text := func(nets int) []byte {
		routes := make(problem.Routing, nets)
		ratios := make([][]int64, nets)
		for n := range routes {
			routes[n] = rng.Perm(numEdges)[:rng.Intn(6)]
			ratios[n] = make([]int64, len(routes[n]))
			for k := range ratios[n] {
				ratios[n][k] = int64(2 * (1 + rng.Intn(50)))
			}
		}
		var buf bytes.Buffer
		if err := problem.WriteSolution(&buf, &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := problem.ParseSolution(bytes.NewReader(data), numEdges); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(text(1000)), allocs(text(10000))
	if many-few > 16 || many > 64 {
		t.Fatalf("ParseSolution allocates %v objects for 1000 nets and %v for 10000, want a near-constant count", few, many)
	}
}
