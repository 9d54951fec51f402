package tdmroute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"tdmroute/internal/problem"
)

// routeGolden is one pinned outcome of the routing pipeline: the SHA-256 of
// the contest-format solution bytes plus the objective and the feedback
// round counts.
type routeGolden struct {
	sha             string
	gtr             int64
	roundsRun, kept int
}

// routeGoldens pins the iterated pipeline across generator seeds, worker
// counts and a deterministic mid-round cancellation (cancel = -1 runs to
// completion). The digests were recorded when the binary heap and the radix
// queue still ran side by side and agreed byte for byte; the radix queue is
// now the only engine, so these goldens carry that equivalence forward.
var routeGoldens = map[string]routeGolden{
	"synopsys01/workers=1/cancel=-1": {"cde72f23c6c51ce7b4eeb1de87308cc6ee5caa654b712554af2cc0aa45d23bc1", 46, 1, 0},
	"synopsys01/workers=1/cancel=1":  {"cde72f23c6c51ce7b4eeb1de87308cc6ee5caa654b712554af2cc0aa45d23bc1", 46, 1, 0},
	"synopsys01/workers=4/cancel=-1": {"e6d16859d483b668f06e1561e57c61255a9f66dfa30c79c5f258d0557cb34d5c", 48, 1, 0},
	"synopsys01/workers=4/cancel=1":  {"e6d16859d483b668f06e1561e57c61255a9f66dfa30c79c5f258d0557cb34d5c", 48, 1, 0},
	"synopsys03/workers=1/cancel=-1": {"c7d8919e9b584d38bac19c5dc770685242775808d24ee935db748d6de6ad0bdf", 168, 1, 0},
	"synopsys03/workers=1/cancel=1":  {"c7d8919e9b584d38bac19c5dc770685242775808d24ee935db748d6de6ad0bdf", 168, 1, 0},
	"synopsys03/workers=4/cancel=-1": {"04d0f23e46d16ff8b234bae1b37d47ad0d8501ba9c22b302e113379f7b5414ae", 170, 1, 0},
	"synopsys03/workers=4/cancel=1":  {"04d0f23e46d16ff8b234bae1b37d47ad0d8501ba9c22b302e113379f7b5414ae", 170, 1, 0},
	"hidden02/workers=1/cancel=-1":   {"ec95ec5028cd922221331239043c0e35bbf67a340e800e69fc128a4b779db5c1", 148, 1, 0},
	"hidden02/workers=1/cancel=1":    {"ec95ec5028cd922221331239043c0e35bbf67a340e800e69fc128a4b779db5c1", 148, 1, 0},
	"hidden02/workers=4/cancel=-1":   {"8283db4e35107351a17da5ad0261a237c697f7d8116c7ff24ce1610ef3161537", 148, 1, 0},
	"hidden02/workers=4/cancel=1":    {"8283db4e35107351a17da5ad0261a237c697f7d8116c7ff24ce1610ef3161537", 148, 1, 0},
}

// TestRouteGoldens is the byte-identity contract of the routing stage's
// shortest-path engine at pipeline scale. The canonical equal-cost
// tie-break (smallest edge id wins the predecessor) makes every shortest
// path a pure function of the graph and costs; a changed digest here means
// a search, router or pipeline change moved a routed edge or a TDM ratio.
func TestRouteGoldens(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 0},
		{"synopsys03", 3},
		{"hidden02", 5},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			for _, cancelRound := range []int{-1, 1} {
				in := equivInstance(t, tc.bench, tc.shift)
				ctx, cancel := context.WithCancel(context.Background())
				req := Request{
					Instance: in,
					Mode:     ModeIterative,
					Rounds:   3,
					Options:  Options{Workers: workers},
				}
				if cancelRound >= 0 {
					req.onRound = func(round int) {
						if round == cancelRound {
							cancel()
						}
					}
				}
				resp, err := Run(ctx, req)
				cancel()
				key := fmt.Sprintf("%s/workers=%d/cancel=%d", tc.bench, workers, cancelRound)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := routeGolden{
					sha:       fmt.Sprintf("%x", solutionSHA(t, resp.Solution)),
					gtr:       resp.Report.GTRMax,
					roundsRun: resp.RoundsRun,
					kept:      resp.RoundsKept,
				}
				if want := routeGoldens[key]; got != want {
					t.Errorf("%s: got %+v, want %+v", key, got, want)
				}
			}
		}
	}
}

// TestPartitionedRoutingWorkerInvariance pins the determinism contract of
// partitioned initial routing: for a fixed Partitions count the result is a
// pure function of the instance and the options minus Workers — unlike the
// wave path, whose schedule feeds congestion back into the result. Every
// solution must also survive the independent validator.
func TestPartitionedRoutingWorkerInvariance(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 0},
		{"synopsys04", 4},
	}
	for _, tc := range cases {
		in := equivInstance(t, tc.bench, tc.shift)
		var ref []byte
		var refGTR int64
		for _, workers := range []int{1, 4} {
			resp, err := Run(context.Background(), Request{
				Instance: in,
				Options:  Options{Workers: workers, Partitions: 3},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.bench, workers, err)
			}
			if err := problem.ValidateSolution(in, resp.Solution); err != nil {
				t.Fatalf("%s workers=%d: partitioned solution invalid: %v", tc.bench, workers, err)
			}
			b := solutionBytes(t, resp.Solution)
			if ref == nil {
				ref, refGTR = b, resp.Report.GTRMax
				continue
			}
			if resp.Report.GTRMax != refGTR || !bytes.Equal(b, ref) {
				t.Fatalf("%s: partitioned solve depends on Workers (gtr %d vs %d, %d vs %d bytes)",
					tc.bench, resp.Report.GTRMax, refGTR, len(b), len(ref))
			}
		}
	}
}

// TestOptionValidation pins the typed validation of the Request knobs: a
// negative partition count fails with an *OptionError naming the field,
// before any solving starts.
func TestOptionValidation(t *testing.T) {
	in := equivInstance(t, "synopsys01", 0)
	cases := []struct {
		name  string
		opt   Options
		field string
	}{
		{"negative partitions", Options{Partitions: -2}, "partitions"},
	}
	for _, tc := range cases {
		_, err := Run(context.Background(), Request{Instance: in, Options: tc.opt})
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: Run returned %v, want *OptionError", tc.name, err)
		}
		if oe.Field != tc.field {
			t.Errorf("%s: OptionError.Field = %q, want %q", tc.name, oe.Field, tc.field)
		}
	}
}
