package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"tdmroute"
	"tdmroute/internal/baseline"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// seedStride separates the generator seeds of successive benchmark seeds
// and variants; it is prime so no two (seed, variant) pairs of one board
// collide for any realistic variant count.
const seedStride = 1_000_003

// item is one instance of a workload with everything its solve needs.
type item struct {
	key   string // board@scale/vN, the ledger's input key
	board string
	in    *problem.Instance
	// routes is the fixed topology of an assign item (nil for cold).
	routes problem.Routing
}

// generate builds variants × boards instances, one variant after another.
func generate(boards []string, scale float64, variants int, seed int64) ([][]item, error) {
	sets := make([][]item, variants)
	for v := range sets {
		var err error
		if sets[v], err = generateVariant(boards, scale, variants, seed, v); err != nil {
			return nil, err
		}
	}
	return sets, nil
}

// generateVariant builds variant v, one instance per board. Variant v of
// benchmark seed s offsets the suite's per-board generator seed by
// (s*variants+v) strides, so seed 0 variant 0 is the generator suite itself.
func generateVariant(boards []string, scale float64, variants int, seed int64, v int) ([]item, error) {
	var set []item
	for _, b := range boards {
		cfg, err := gen.SuiteConfig(b, scale)
		if err != nil {
			return nil, err
		}
		cfg.Seed += (seed*int64(variants) + int64(v)) * seedStride
		in, err := gen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", b, err)
		}
		set = append(set, item{key: fmt.Sprintf("%s/v%d", cfg.Name, v), board: b, in: in})
	}
	return set, nil
}

// epsilon is the paper's LR stopping gap per benchmark, the policy the
// Table II harness (internal/exp) applies: 0.27% for synopsys01..05 and
// 0.05% for the larger benchmarks.
func epsilon(board string) float64 {
	switch board {
	case "synopsys01", "synopsys02", "synopsys03", "synopsys04", "synopsys05":
		return 0.0027
	}
	return 0.0005
}

// solveSpec is an in-process workload: a list of instance sets, each solved
// by one tdmroute.Run per instance. A pass is one set; a cycle is every set
// once.
type solveSpec struct {
	mode     tdmroute.Mode
	boards   []string
	scale    float64
	variants int
	// setupReps is how many times a timed run repeats the set-up; setup_s
	// is the median. A set-up of a few tenths of a second is repeated more
	// often than a long one, since scheduler jitter is a larger share of it.
	setupReps int
	// tdm returns the TDM options of a board's solve.
	tdm func(board string) tdmroute.TDMOptions
}

// request is the Run request of one item.
func (s solveSpec) request(it item) tdmroute.Request {
	return tdmroute.Request{
		Instance: it.in,
		Mode:     s.mode,
		Routing:  it.routes,
		Options:  tdmroute.Options{Workers: 1, TDM: s.tdm(it.board)},
	}
}

// prepare is the workload's set-up: instance generation and, for assign,
// the fixed topologies of the emulated "1st" contest entry (shortest-path
// routing), which the "+TA" flow re-assigns.
func (s solveSpec) prepare(seed int64) ([][]item, error) {
	sets, err := generate(s.boards, s.scale, s.variants, seed)
	if err != nil || s.mode != tdmroute.ModeAssignOnly {
		return sets, err
	}
	router := baseline.Winners()[0].Route
	for _, set := range sets {
		for i := range set {
			if set[i].routes, err = router(set[i].in); err != nil {
				return nil, fmt.Errorf("%s: baseline routing: %w", set[i].key, err)
			}
		}
	}
	return sets, nil
}

// opStat is what the benchmark keeps of one solve once it is checked; the
// solution itself is dropped so retained results do not inflate peak RSS.
type opStat struct {
	perf   tdmroute.Perf
	report tdmroute.Report
}

// runCycles repeats whole cycles over n passes until another cycle would
// overrun budget (always at least one), and returns every pass's timed
// wall. Whole cycles keep each pass equally represented, so a faster build
// that fits more cycles does not change which inputs the median is over.
func runCycles(budget time.Duration, n int, pass func(i int) time.Duration) []time.Duration {
	start := time.Now()
	var walls []time.Duration
	for {
		c0 := time.Now()
		for i := 0; i < n; i++ {
			walls = append(walls, pass(i))
		}
		if time.Since(start)+time.Since(c0) > budget {
			return walls
		}
	}
}

// runSolve runs an in-process workload.
func runSolve(cfg runConfig, s solveSpec) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, ledger: newLedger()}
	reps := s.setupReps
	if cfg.trace {
		reps = 1 // setup_s is not reported by a traced run
	}
	var sets [][]item
	var setupCPU, setupWall []float64
	for r := 0; r < reps; r++ {
		sets = nil
		runtime.GC() // drop the previous repetition's inputs before timing
		t0, c0 := time.Now(), cpuTime()
		var err error
		if sets, err = s.prepare(cfg.seed); err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	ctx := context.Background()

	// runPass solves one set through tdmroute.Run, timing only the
	// Run calls, and checks every solution afterwards.
	var stats []opStat
	var cpus []float64 // process CPU seconds per pass
	var splits []split
	runPass := func(i int) time.Duration {
		var wall, cpu time.Duration
		var sp split
		for _, it := range sets[i] {
			// Collect the previous solve's and the checks' garbage outside
			// the timed region, so a solve pays only for its own.
			runtime.GC()
			t0, c0 := time.Now(), cpuTime()
			resp, err := tdmroute.Run(ctx, s.request(it))
			wall += time.Since(t0)
			cpu += cpuTime() - c0
			if out.ledger.record(it.key, it.in, resp, err) != "" {
				stats = append(stats, opStat{perf: resp.Perf, report: resp.Report})
				sp.add(resp.Perf)
			}
		}
		cpus = append(cpus, cpu.Seconds())
		splits = append(splits, sp)
		return wall
	}

	// A traced run interleaves each untraced pass with the same pass through
	// the decomposed pipeline, so both see the same machine conditions and
	// their difference is the tracing overhead.
	var tr *tracer
	var tp *tracedPasses
	var twalls []time.Duration
	pass := runPass
	if cfg.trace {
		tr = &tracer{}
		tp = &tracedPasses{spec: s, ledger: out.ledger, tr: tr}
		pass = func(i int) time.Duration {
			wall := runPass(i)
			twalls = append(twalls, tp.pass(ctx, sets[i]))
			return wall
		}
	}
	walls := runCycles(cfg.seconds, len(sets), pass)
	batch := median(seconds(walls))
	out.samples = map[string][]float64{"pass_wall_s": seconds(walls), "pass_cpu_s": cpus,
		"setup_wall_s": setupWall, "setup_cpu_s": setupCPU}
	out.note("%d passes of %d instances (%d variants x %v @%g), %d solves",
		len(walls), len(s.boards), len(sets), s.boards, s.scale, len(stats))

	if !cfg.trace {
		var gtr []float64
		for _, st := range stats[:min(len(stats), len(sets)*len(s.boards))] {
			gtr = append(gtr, float64(st.report.GTRMax))
		}
		recordShares(out.metrics, splits)
		out.metrics["setup_s"] = median(setupCPU)
		out.metrics["batch_cpu_s"] = median(cpus)
		out.metrics["gtr_max_geomean"] = geomean(gtr)
		out.note("set-up CPU %v s over %d reps; wall: set-up %.4gs, pass %.4gs (median over %d passes)",
			setupCPU, len(setupCPU), median(setupWall), batch, len(walls))
		return out, nil
	}

	out.spans = tr
	m := out.metrics
	np := float64(len(twalls))
	sumSec := func(name string) float64 { return sum(seconds(tr.durations(name))) }
	msMedian := func(name string) float64 { return median(seconds(tr.durations(name))) * 1e3 }
	solveSec := sumSec("route.Route") + sumSec("tdm.RunLR") + sumSec("tdm.Finish")

	m["problem.parse_ms"] = msMedian("problem.ParseInstance")
	m["problem.write_solution_ms"] = msMedian("problem.WriteSolution")
	m["route.route_s"] = sumSec("route.Route") / np
	m["route.share"] = ratio(sumSec("route.Route"), solveSec)
	m["route.ripup_rounds"] = float64(tp.ripupRounds) / np
	m["route.reverted_rounds"] = float64(tp.revertedRounds) / np
	m["route.ripped_nets"] = float64(tp.rippedNets) / np
	m["tdm.lr_s"] = sumSec("tdm.RunLR") / np
	m["tdm.lr_iterations"] = float64(tp.iters) / np
	m["tdm.lr_cells"] = float64(tp.cells) / np
	m["tdm.lr_ns_per_cell_iter"] = ratio(sumSec("tdm.RunLR")*1e9, float64(tp.cellIters))
	m["tdm.lr_converged_share"] = ratio(float64(tp.converged), float64(tp.solves))
	m["tdm.lr_gap_at_stop"] = geomean(tp.gaps)
	m["tdm.legal_refine_ms"] = sumSec("tdm.Finish") * 1e3 / np
	m["tdm.refine_gain"] = geomean(tp.refineGains)

	var allocs []float64
	for _, st := range stats {
		allocs = append(allocs, float64(st.perf.Allocs))
	}
	m["pipeline.allocs_per_solve"] = median(allocs)
	for _, k := range []string{"pipeline.delta_route_ms_p50", "pipeline.delta_lr_ms_p50", "pipeline.delta_lr_iterations_p50",
		"serve.delta_s_p50", "serve.delta_s_p90", "serve.ops_per_s", "serve.queue_wait_ms_p50", "serve.overhead_ms_p50", "serve.events_per_job",
		"coord.hit_s_p50", "coord.cache_hit_ratio", "coord.overhead_ms_p50"} {
		m[k] = 0 // no serving tier and no ECO deltas on this workload
	}

	// The replays add spans of their own, so they run after every
	// span-derived figure above is taken.
	var ins []*problem.Instance
	for _, set := range sets {
		for _, it := range set {
			ins = append(ins, it.in)
		}
	}
	if s.mode == tdmroute.ModeSingle {
		m["route.ns_per_routed_edge"] = ratio(sumSec("route.Route")*1e9, float64(tp.routedEdges))
		m["route.routed_edges"] = float64(tp.routedEdges) / np
		replayGraph(m, ins, tr)
	} else {
		replayRoute(m, ins, tr)
	}

	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.batch_wall_s"] = batch
	m["process.setup_wall_s"] = median(setupWall)
	m["trace.overhead_s"] = median(seconds(twalls)) - batch
	m["trace.void_ops"] = float64(tp.void)
	m["trace.spans"] = float64(tr.count())
	out.note("traced: %d passes, %d spans; untraced batch %.4fs, traced batch %.4fs", len(twalls), tr.count(), batch, median(seconds(twalls)))
	if tp.void > 0 {
		out.note("TRACE VOID: %d traced solves differ from the untraced Run digest", tp.void)
	}
	return out, nil
}

// tracedPasses runs the pipeline decomposed into its layer calls, one span
// per call, and accumulates the layer counters.
type tracedPasses struct {
	spec   solveSpec
	ledger *ledger
	tr     *tracer

	solves, converged, void                 int
	iters, cells, cellIters, routedEdges    int
	ripupRounds, revertedRounds, rippedNets int
	gaps, refineGains                       []float64
}

// pass solves one set and returns the wall of its solver calls (routing,
// LR, legalization/refinement), the part tdmroute.Run also performs.
func (tp *tracedPasses) pass(ctx context.Context, set []item) time.Duration {
	var wall time.Duration
	for _, it := range set {
		runtime.GC() // as in the untraced pass
		d, err := tp.solve(ctx, it)
		if err != nil {
			tp.ledger.fail(it.key+" (traced)", err)
		}
		wall += d
	}
	return wall
}

func (tp *tracedPasses) solve(ctx context.Context, it item) (time.Duration, error) {
	root := tp.tr.op("pipeline." + tp.spec.mode.String())
	defer root.end()
	call := func(name string, f func() error) (time.Duration, error) {
		sp := root.child(name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return d, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}

	// Input I/O: the instance (and, for assign, the topology) travel as
	// contest text, as they would into the CLI.
	var text, rtext bytes.Buffer
	var in *problem.Instance
	routes := it.routes
	if _, err := call("problem.WriteInstance", func() error { return problem.WriteInstance(&text, it.in) }); err != nil {
		return 0, err
	}
	if _, err := call("problem.ParseInstance", func() (err error) {
		in, err = problem.ParseInstance(it.in.Name, &text)
		return err
	}); err != nil {
		return 0, err
	}
	if routes != nil {
		if err := problem.WriteRouting(&rtext, routes); err != nil {
			return 0, err
		}
		if _, err := call("problem.ParseRouting", func() (err error) {
			routes, err = problem.ParseRouting(&rtext, in.G.NumEdges())
			return err
		}); err != nil {
			return 0, err
		}
	}

	var wall time.Duration
	topt := tdm.Options(tp.spec.tdm(it.board))
	topt.Workers = 1
	if routes == nil {
		var rstats route.Stats
		d, err := call("route.Route", func() (err error) {
			routes, rstats, err = route.Route(ctx, in, route.Options{Workers: 1})
			return err
		})
		wall += d
		if err != nil {
			return wall, err
		}
		tp.ripupRounds += rstats.RipUpRounds
		tp.revertedRounds += rstats.RevertedRound
		tp.rippedNets += rstats.RippedNets
		tp.routedEdges += routes.NumRoutedEdges()
	}

	var relaxed [][]float64
	var z, lb float64
	var iters int
	var converged bool
	d, err := call("tdm.RunLR", func() (stopped error) {
		relaxed, z, lb, iters, converged, stopped = tdm.RunLR(ctx, in, routes, topt)
		return stopped
	})
	wall += d
	if err != nil {
		return wall, err
	}
	var assign problem.Assignment
	var rep tdm.Report
	d, err = call("tdm.Finish", func() (err error) {
		assign, rep, err = tdm.Finish(ctx, in, routes, relaxed, topt)
		return err
	})
	wall += d
	if err != nil {
		return wall, err
	}
	sol := &problem.Solution{Routes: routes, Assign: assign}
	var solText bytes.Buffer
	if _, err := call("problem.WriteSolution", func() error { return problem.WriteSolution(&solText, sol) }); err != nil {
		return wall, err
	}

	cells := routes.NumRoutedEdges()
	tp.solves++
	tp.iters += iters
	tp.cells += cells
	tp.cellIters += iters * cells
	if converged {
		tp.converged++
	}
	if lb > 0 {
		tp.gaps = append(tp.gaps, (z-lb)/lb)
	}
	if rep.GTRMax > 0 {
		tp.refineGains = append(tp.refineGains, float64(rep.GTRNoRef)/float64(rep.GTRMax))
	}
	resp := &tdmroute.Response{Solution: sol, Report: rep}
	digest := tp.ledger.record(it.key+" (traced)", it.in, resp, nil)
	if untraced := tp.ledger.digest(it.key); digest == "" || digest != untraced {
		tp.void++
	}
	return wall, nil
}
