package tdmroute

import (
	"bytes"
	"context"
	"testing"

	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// solutionBytes serializes a solution in the contest text format; the
// equivalence suite compares these bytes, so "identical" means identical
// down to every routed edge and every TDM ratio digit.
func solutionBytes(t *testing.T, sol *problem.Solution) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := problem.WriteSolution(&buf, sol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func equivInstance(t *testing.T, name string, seedShift int64) *Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig(name, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed += seedShift
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSolveIterativeMatchesColdReference is the byte-identity contract of
// the incremental core: across generator seeds, worker counts, and a
// deterministic mid-round cancellation, Run in ModeIterative must reproduce
// the from-scratch reference (solveIterativeCold) exactly — same solution
// bytes, same round counts, same objective.
func TestSolveIterativeMatchesColdReference(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 0},
		{"synopsys02", 1},
		{"hidden01", 2},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			for _, cancelRound := range []int{-1, 1} {
				in := equivInstance(t, tc.bench, tc.shift)
				run := func(solve func(context.Context, Request) (*Response, error)) *Response {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					req := Request{
						Instance: in,
						Mode:     ModeIterative,
						Rounds:   4,
						Options:  Options{Workers: workers},
					}
					if cancelRound >= 0 {
						req.onRound = func(round int) {
							if round == cancelRound {
								cancel()
							}
						}
					}
					res, err := solve(ctx, req)
					if err != nil {
						t.Fatalf("%s workers=%d cancel=%d: %v", tc.bench, workers, cancelRound, err)
					}
					return res
				}
				warm := run(Run)
				cold := run(solveIterativeCold)

				if warm.Report.GTRMax != cold.Report.GTRMax ||
					warm.InitialGTR != cold.InitialGTR ||
					warm.RoundsRun != cold.RoundsRun ||
					warm.RoundsKept != cold.RoundsKept {
					t.Fatalf("%s workers=%d cancel=%d: session (gtr=%d initial=%d run=%d kept=%d) vs cold (gtr=%d initial=%d run=%d kept=%d)",
						tc.bench, workers, cancelRound,
						warm.Report.GTRMax, warm.InitialGTR, warm.RoundsRun, warm.RoundsKept,
						cold.Report.GTRMax, cold.InitialGTR, cold.RoundsRun, cold.RoundsKept)
				}
				wb := solutionBytes(t, warm.Solution)
				cb := solutionBytes(t, cold.Solution)
				if !bytes.Equal(wb, cb) {
					t.Fatalf("%s workers=%d cancel=%d: solution bytes diverged (%d vs %d bytes)",
						tc.bench, workers, cancelRound, len(wb), len(cb))
				}
				if (warm.Degraded != nil) != (cold.Degraded != nil) {
					t.Fatalf("%s workers=%d cancel=%d: degraded %v vs %v",
						tc.bench, workers, cancelRound, warm.Degraded, cold.Degraded)
				}
			}
		}
	}
}

// TestSolveIterativeBuildsAPSPOnce pins the headline reuse property: one
// iterated solve — base routing plus every feedback reroute — constructs
// the all-pairs LUT exactly once. (The cold reference rebuilds it on every
// round, which is precisely the waste the session removes.)
func TestSolveIterativeBuildsAPSPOnce(t *testing.T) {
	in := equivInstance(t, "synopsys01", 0)
	before := graph.APSPBuilds()
	res, err := Run(context.Background(), Request{Instance: in, Mode: ModeIterative, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun < 1 {
		t.Fatalf("no feedback rounds ran (RoundsRun=%d); the test needs at least one reroute", res.RoundsRun)
	}
	if got := graph.APSPBuilds() - before; got != 1 {
		t.Fatalf("ModeIterative built the APSP %d times, want exactly 1", got)
	}
}
