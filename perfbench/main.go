// Command perfbench is the repository benchmark. It drives the tdmroute
// co-optimizer from outside on one workload, checks every solution it gets
// back, and prints the metrics listed in BENCHMARK.json: the end-to-end
// metrics for a timed run (--trace 0), or the per-layer metrics for a
// separate traced run (--trace 1). The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines above
// it are a human-readable report, and a fuller record (per-instance solution
// digests, sample counts, environment) is written under .bench_build/.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the binary first:
//
//	bash perfbench/run.sh --workload cold --seed 0 --seconds 20 --trace 0
//
// The workloads are described in perfbench/README.md; --describe regenerates
// perfbench/workloads.json, the record of each workload's configuration and
// of the route/LR split it produces at three seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload runs one workload under cfg and returns what it measured.
type workload struct {
	name   string
	run    func(cfg runConfig) (*outcome, error)
	record workloadRecord
}

var workloads = []workload{coldWorkload, assignWorkload, ecoWorkload}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured: metric values by name (units
// come from BENCHMARK.json), the correctness ledger, and report lines.
type outcome struct {
	metrics map[string]float64
	ledger  *ledger
	notes   []string
	// spans is the traced run's span store (nil for timed runs).
	spans *tracer
	// samples are the raw timings behind the medians, kept in the record.
	samples map[string][]float64
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units each kind of run must print.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	var (
		name     = flag.String("workload", "", "workload to run: cold, assign, eco-serve, or all of them in turn")
		seed     = flag.Int64("seed", 0, "input seed; 0 reproduces the generator suite's own per-board seeds")
		secs     = flag.Int("seconds", 20, "how long the measured phase runs, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced decomposition and prints the per-layer metrics")
		describe = flag.Bool("describe", false, "print the workload record (perfbench/workloads.json) and exit")
		commit   = flag.String("commit", "unknown", "commit the workload record was measured at (with --describe)")
	)
	flag.Parse()
	if *describe {
		return describeAll(*commit)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *secs < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *secs)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1}
	if *name == "all" {
		for i := range workloads {
			if err := runOne(&workloads[i], cfg, want); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range workloads {
		if workloads[i].name == *name {
			return runOne(&workloads[i], cfg, want)
		}
	}
	return fmt.Errorf("unknown --workload %q (want cold, assign, eco-serve or all)", *name)
}

// runOne runs one workload and prints its report and result line.
func runOne(w *workload, cfg runConfig, want []specMetric) error {
	out, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line := resultLine{
		Attempted: out.ledger.attempted,
		Failed:    out.ledger.failed,
		Metrics:   map[string]metricOut{},
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	var missing []string
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		line.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s did not measure %s", w.name, strings.Join(missing, ", "))
	}

	env := environment("")
	report(w, cfg, env, out, want)
	if err := writeRecord(w, cfg, env, out, line); err != nil {
		return err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json lists no metrics")
	}
	return &s, nil
}

// env is the environment a result was measured in.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

func environment(commit string) env {
	return env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
}

// report prints the human-readable lines that precede the result line.
func report(w *workload, cfg runConfig, e env, out *outcome, want []specMetric) {
	kind := "timed run, end-to-end metrics"
	if cfg.trace {
		kind = "traced run, per-layer metrics"
	}
	fmt.Printf("workload %s, seed %d, %s (%s, nproc %d, GOMAXPROCS %d)\n",
		w.name, cfg.seed, kind, e.GoVersion, e.NumCPU, e.GOMAXPROCS)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, m := range want {
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, out.metrics[m.Name], m.Unit)
	}
	l := out.ledger
	fmt.Printf("  fail_ratio %.4g (%d failed of %d attempted)\n", ratio(float64(l.failed), float64(l.attempted)), l.failed, l.attempted)
	for _, msg := range l.errs {
		fmt.Println("  FAILED: " + msg)
	}
}

// writeRecord stores the full result, with the per-instance digests, under
// .bench_build/perfbench/results, and the traced run's spans next to it.
func writeRecord(w *workload, cfg runConfig, e env, out *outcome, line resultLine) error {
	dir := filepath.Join(".bench_build", "perfbench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, trace)
	rec := struct {
		Workload  string               `json:"workload"`
		Seed      int64                `json:"seed"`
		Seconds   float64              `json:"seconds"`
		Trace     bool                 `json:"trace"`
		Env       env                  `json:"env"`
		Config    workloadRecord       `json:"config"`
		Result    resultLine           `json:"result"`
		FailRatio float64              `json:"fail_ratio"`
		Failures  []string             `json:"failures,omitempty"`
		Notes     []string             `json:"notes"`
		Digests   map[string]string    `json:"solution_sha256"`
		All       map[string]float64   `json:"all_metrics"`
		Samples   map[string][]float64 `json:"samples,omitempty"`
	}{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Env: e, Config: w.record, Result: line,
		FailRatio: ratio(float64(line.Failed), float64(line.Attempted)),
		Failures:  out.ledger.errs, Notes: out.notes, Digests: out.ledger.digests, All: out.metrics, Samples: out.samples,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if out.spans != nil {
		return out.spans.write(filepath.Join(dir, base+".spans.json"))
	}
	return nil
}
