package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestPerfShape runs the perf measurement on a tiny suite and checks the
// rows are populated, deterministic across reps (the digest of rep 1 must
// match rep 2's — Perf keeps one, so two calls must agree), and render as
// valid JSON.
func TestPerfShape(t *testing.T) {
	cfg := smallCfg()
	rep, err := Perf(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.GTRMax <= 0 || r.InitialGTR <= 0 {
			t.Errorf("%s: non-positive GTR (max=%d initial=%d)", r.Bench, r.GTRMax, r.InitialGTR)
		}
		if r.GTRMax > r.InitialGTR {
			t.Errorf("%s: feedback worsened GTR %d -> %d", r.Bench, r.InitialGTR, r.GTRMax)
		}
		if r.WallMS <= 0 || r.LRMS <= 0 {
			t.Errorf("%s: missing stage times: %+v", r.Bench, r)
		}
		if len(r.SolutionSHA256) != 64 {
			t.Errorf("%s: bad digest %q", r.Bench, r.SolutionSHA256)
		}
		if r.RoundsRequested != 2 || r.RoundsRun > 2 {
			t.Errorf("%s: rounds requested=%d run=%d", r.Bench, r.RoundsRequested, r.RoundsRun)
		}
	}

	// Determinism: a second measurement must reproduce the exact solutions.
	rep2, err := Perf(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Rows {
		if rep.Rows[i].SolutionSHA256 != rep2.Rows[i].SolutionSHA256 {
			t.Errorf("%s: digest differs across runs", rep.Rows[i].Bench)
		}
		if rep.Rows[i].GTRMax != rep2.Rows[i].GTRMax {
			t.Errorf("%s: GTR differs across runs", rep.Rows[i].Bench)
		}
	}

	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded PerfReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(decoded.Rows) != len(rep.Rows) {
		t.Fatalf("round-trip lost rows: %d vs %d", len(decoded.Rows), len(rep.Rows))
	}
}

// TestReadPerfJSONLegacyQueue reads a row written when the routing engine
// was still selectable: the retired "queue" field is ignored, the other
// fields survive, and a row without "scale" inherits the report's.
func TestReadPerfJSONLegacyQueue(t *testing.T) {
	const legacy = `{"scale": 0.2, "workers": 1, "rounds": 1, "reps": 1, "rows": [
  {"bench": "synopsys01", "workers": 1, "queue": "heap", "partitions": 3,
   "rounds_requested": 1, "wall_ms": 12.5, "gtr_max": 46,
   "solution_sha256": "cde72f23c6c51ce7b4eeb1de87308cc6ee5caa654b712554af2cc0aa45d23bc1"}]}`
	rep, err := ReadPerfJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	r := rep.Rows[0]
	if r.Bench != "synopsys01" || r.Scale != 0.2 || r.Partitions != 3 || r.WallMS != 12.5 || r.GTRMax != 46 ||
		r.SolutionSHA256 != "cde72f23c6c51ce7b4eeb1de87308cc6ee5caa654b712554af2cc0aa45d23bc1" {
		t.Fatalf("legacy row decoded as %+v", r)
	}
}
