package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"tdmroute"
	"tdmroute/internal/coord"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// The eco-serve workload: a closed loop of one client per entry of
// ecoBoards, each with its own HTTP transport, driving an in-process
// tdmcoord that fronts one in-process tdmroutd. Client i owns a retained
// base solve of ecoBoards[i] and runs ecoCycles cycles of ecoDeltas seeded
// ECO deltas plus one plain resubmission of its base instance, which the
// coordinator answers from its result cache. The clients run their cycles
// side by side in rounds: each waits for the other at the end of a cycle.
const (
	ecoScale  = 0.02
	ecoDeltas = 3
	ecoCycles = 12 // per client and session
	// ecoVariants is how many seeded variants of the bases a run serves,
	// one session each: the cost of a cycle depends on the instances, and a
	// single pair made it follow the seed (quartile spread 21% over ten
	// seeds).
	ecoVariants = 5
	// ecoTracedVariants is how many of them a traced run serves, each
	// twice, which keeps it well inside its time limit.
	ecoTracedVariants = 3
	ecoPoolWorkers    = 2
	// ecoMaxIter caps the server's LR iterations per solve. A warm-started
	// delta converges in one iteration on most edits, but about one edit in
	// ten runs to the cap; at the default 500 those few set the CPU figure
	// of a cycle and swing it between seeds.
	ecoMaxIter = 50
	// ecoGTRDeltas is how many of each client's first deltas per variant
	// enter gtr_max_geomean.
	ecoGTRDeltas = 6
)

var ecoBoards = []string{"synopsys04", "hidden02"}

// ecoStack is the in-process serving tier.
type ecoStack struct {
	srv     *serve.Server
	backend *httptest.Server
	co      *coord.Coordinator
	front   *httptest.Server
}

func startStack() (*ecoStack, error) {
	srv := serve.New(serve.Config{Workers: ecoPoolWorkers, SolveOptions: tdmroute.Options{Workers: 1, TDM: tdmroute.TDMOptions{MaxIter: ecoMaxIter}}})
	backend := httptest.NewServer(srv.Handler())
	co, err := coord.New(coord.Config{Backends: []string{backend.URL}})
	if err != nil {
		backend.Close()
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &ecoStack{srv: srv, backend: backend, co: co, front: httptest.NewServer(co.Handler())}, nil
}

// stop drains the coordinator, then the backend, and waits for both.
func (s *ecoStack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.co.Shutdown(ctx)
	s.front.Close()
	err = errors.Join(err, s.srv.Shutdown(ctx))
	s.backend.Close()
	return err
}

// ecoClient is one closed-loop client and the state of its ECO stream.
type ecoClient struct {
	name   string
	c      *serve.Client
	tr     *http.Transport
	base   *problem.Instance // as submitted; the resubmissions send it again
	cur    *problem.Instance // the base with every edit sent so far
	baseID string
	rng    *rand.Rand
	ledger *ledger
	// pending holds the session's results until check; validating them
	// inside the loop would compete for the CPUs with the other client.
	pending []pendingOp
}

// opRecord is one timed client operation and what its status reported.
type opRecord struct {
	hit     bool
	latency time.Duration
	st      *serve.JobStatus
	cells   int
	// writeMS is a traced replay of problem.WriteSolution on the result.
	writeMS float64
}

// pendingOp is an operation's result awaiting the post-session check.
type pendingOp struct {
	key  string
	rec  *opRecord
	edit *tdmroute.Delta // nil for a resubmission
	text []byte
	err  error
}

// cycleRecord is one client cycle: its operations and their summed latency.
type cycleRecord struct {
	wall time.Duration
	ops  []opRecord
}

func newClient(name, url string, rngSeed int64, in *problem.Instance, l *ledger) *ecoClient {
	tr := &http.Transport{}
	return &ecoClient{
		name:   name,
		c:      &serve.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}},
		tr:     tr,
		base:   in,
		cur:    in.Clone(),
		rng:    rand.New(rand.NewSource(rngSeed)),
		ledger: l,
	}
}

// finished checks a terminal status and turns it into a Response for the
// ledger.
func finished(st *serve.JobStatus, sol *problem.Solution) (*tdmroute.Response, error) {
	if st.State != serve.StateDone || st.Response == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	resp := *st.Response
	resp.Solution = sol
	return &resp, nil
}

// submitBase solves the client's base instance with its warm state retained.
func (c *ecoClient) submitBase(ctx context.Context) error {
	st, err := c.c.Submit(ctx, serve.SubmitRequest{Instance: c.base, Name: c.name, Retain: true})
	if err == nil {
		st, err = c.c.Wait(ctx, st.ID)
	}
	var resp *tdmroute.Response
	if err == nil {
		var text []byte
		if text, err = c.c.SolutionBytes(ctx, st.ID, serve.FormatText); err == nil {
			var sol *problem.Solution
			if sol, err = problem.ParseSolution(bytes.NewReader(text), c.base.G.NumEdges()); err == nil {
				resp, err = finished(st, sol)
			}
		}
	}
	if c.ledger.record(c.name+"/base", c.base, resp, err) == "" {
		return fmt.Errorf("%s: base solve failed", c.name)
	}
	c.baseID = st.ID
	return nil
}

// op times one submission from submit to done as the client sees it, then
// downloads the solution for the post-session check.
func (c *ecoClient) op(ctx context.Context, rec *opRecord, root spanRef, call string, submit func() (*serve.JobStatus, error)) ([]byte, error) {
	t0 := time.Now()
	sp := root.child(call)
	st, err := submit()
	sp.end()
	if err == nil {
		sp = root.child("serve.Client.Wait")
		st, err = c.c.Wait(ctx, st.ID)
		sp.end()
	}
	rec.latency = time.Since(t0)
	rec.st = st
	if err != nil {
		return nil, err
	}
	sp = root.child("serve.Client.SolutionBytes")
	defer sp.end()
	return c.c.SolutionBytes(ctx, st.ID, serve.FormatText)
}

// delta sends one seeded ECO edit: remove a live net, add a 2-pin net.
func (c *ecoClient) delta(ctx context.Context, tr *tracer, rec *opRecord) {
	n := c.rng.Intn(len(c.cur.Nets))
	for len(c.cur.Nets[n].Terminals) == 0 {
		n = c.rng.Intn(len(c.cur.Nets))
	}
	nv := c.cur.G.NumVertices()
	a, b := c.rng.Intn(nv), c.rng.Intn(nv-1)
	if b >= a {
		b++
	}
	p := pendingOp{key: fmt.Sprintf("%s/delta%d", c.name, len(c.pending)), rec: rec,
		edit: &tdmroute.Delta{RemoveNets: []int{n}, AddNets: []tdmroute.Net{{Terminals: []int{a, b}}}}}
	if p.err = p.edit.Apply(c.cur); p.err == nil {
		doc := serve.DeltaDoc{RemoveNets: []int{n}, AddNets: []serve.DeltaNetDoc{{Terminals: []int{a, b}}}}
		root := tr.op("coord.delta")
		p.text, p.err = c.op(ctx, rec, root, "serve.Client.SubmitDelta", func() (*serve.JobStatus, error) {
			return c.c.SubmitDelta(ctx, c.baseID, doc, 0)
		})
		root.end()
	}
	c.pending = append(c.pending, p)
}

// resubmit sends the unmodified base instance again; its solution must be
// byte-identical to the base solve's.
func (c *ecoClient) resubmit(ctx context.Context, tr *tracer, rec *opRecord) {
	rec.hit = true
	p := pendingOp{key: c.name + "/base", rec: rec}
	root := tr.op("coord.resubmit")
	p.text, p.err = c.op(ctx, rec, root, "serve.Client.Submit", func() (*serve.JobStatus, error) {
		return c.c.Submit(ctx, serve.SubmitRequest{Instance: c.base, Name: c.name})
	})
	root.end()
	c.pending = append(c.pending, p)
}

// cycle runs one cycle of ecoDeltas deltas and one resubmission; where the
// resubmission falls comes from the client's seeded stream.
func (c *ecoClient) cycle(ctx context.Context, tr *tracer, cy *cycleRecord) {
	cy.ops = make([]opRecord, ecoDeltas+1)
	hitAt := c.rng.Intn(ecoDeltas + 1)
	for k := range cy.ops {
		if k == hitAt {
			c.resubmit(ctx, tr, &cy.ops[k])
		} else {
			c.delta(ctx, tr, &cy.ops[k])
		}
		cy.wall += cy.ops[k].latency
	}
}

// check validates and digests the session's results in order, replaying
// the edits on a fresh copy of the base so each delta's solution is checked
// against the instance the server solved.
func (c *ecoClient) check(tr *tracer) {
	in := c.base.Clone()
	for _, p := range c.pending {
		target := c.base
		if p.edit != nil {
			if err := p.edit.Apply(in); err != nil && p.err == nil {
				p.err = err
			}
			target = in
		}
		if p.err != nil {
			c.ledger.fail(p.key, p.err)
			continue
		}
		sol, err := problem.ParseSolution(bytes.NewReader(p.text), target.G.NumEdges())
		var resp *tdmroute.Response
		if err == nil {
			resp, err = finished(p.rec.st, sol)
		}
		if err == nil && p.edit != nil {
			p.rec.cells = sol.Routes.NumRoutedEdges()
			if tr != nil {
				root := tr.op("problem.replay")
				sp := root.child("problem.WriteSolution")
				t0 := time.Now()
				err = problem.WriteSolution(&bytes.Buffer{}, sol)
				p.rec.writeMS = time.Since(t0).Seconds() * 1e3
				sp.end()
				root.end()
			}
		}
		c.ledger.record(p.key, target, resp, err)
	}
	c.pending = nil
}

// ecoBases generates variant v of the clients' base instances, one per
// entry of ecoBoards.
func ecoBases(seed int64, v int) ([]*problem.Instance, error) {
	set, err := generateVariant(ecoBoards, ecoScale, ecoVariants, seed, v)
	if err != nil {
		return nil, err
	}
	ins := make([]*problem.Instance, len(set))
	for i, it := range set {
		ins[i] = it.in
	}
	return ins, nil
}

// setupEco generates the base instances, starts the serving tier and
// solves the retained bases, concurrently, one per client.
func setupEco(seed int64, v int, l *ledger) (*ecoStack, []*ecoClient, error) {
	ins, err := ecoBases(seed, v)
	if err != nil {
		return nil, nil, err
	}
	stack, err := startStack()
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*ecoClient, len(ins))
	errs := make([]error, len(ins))
	//lint:ignore rawgo benchmark client driver, not solver parallelism: one goroutine per HTTP client submits its base
	var wg sync.WaitGroup
	for i, in := range ins {
		clients[i] = newClient(fmt.Sprintf("%s/v%d/client%d", in.Name, v, i), stack.front.URL,
			(seed*ecoVariants+int64(v))*seedStride+int64(i), in, l)
		wg.Add(1)
		//lint:ignore rawgo benchmark client driver, not solver parallelism: one goroutine per HTTP client submits its base
		go func(c *ecoClient, err *error) {
			defer wg.Done()
			*err = c.submitBase(context.Background())
		}(clients[i], &errs[i])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, errors.Join(err, stopEco(stack, clients))
	}
	return stack, clients, nil
}

func stopEco(stack *ecoStack, clients []*ecoClient) error {
	for _, c := range clients {
		c.tr.CloseIdleConnections()
	}
	return stack.stop()
}

// session is one lifetime of the serving tier for one variant: set-up,
// every client's cycles, shutdown. The server's job history, which it keeps
// for the life of the process, stays bounded by one session.
type session struct {
	setup, setupCPU time.Duration
	wall            time.Duration   // the rounds' wall time
	cycles          [][]cycleRecord // per client
	// roundCPU is the process CPU time of each round, in which every
	// client runs one cycle. Rounds let a CPU figure be taken per cycle
	// although the clients' work interleaves.
	roundCPU []time.Duration
}

func runSession(seed int64, v int, l *ledger, tr *tracer) (*session, error) {
	runtime.GC() // release the previous session before timing this one
	t0, c0 := time.Now(), cpuTime()
	stack, clients, err := setupEco(seed, v, l)
	if err != nil {
		return nil, err
	}
	s := &session{setup: time.Since(t0), setupCPU: cpuTime() - c0, cycles: make([][]cycleRecord, len(clients))}
	for i := range s.cycles {
		s.cycles[i] = make([]cycleRecord, ecoCycles)
	}
	t1 := time.Now()
	for r := 0; r < ecoCycles; r++ {
		c1 := cpuTime()
		//lint:ignore rawgo benchmark client driver, not solver parallelism: the closed-loop clients run their cycles concurrently
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			//lint:ignore rawgo benchmark client driver, not solver parallelism: the closed-loop clients run their cycles concurrently
			go func(c *ecoClient, cy *cycleRecord) {
				defer wg.Done()
				c.cycle(context.Background(), tr, cy)
			}(c, &s.cycles[i][r])
		}
		wg.Wait()
		s.roundCPU = append(s.roundCPU, cpuTime()-c1)
	}
	s.wall = time.Since(t1)
	if err := stopEco(stack, clients); err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.check(tr)
	}
	return s, nil
}

// runSessions serves every variant once per cycle and repeats whole cycles
// until another would overrun budget (always at least one); a repeated
// session replays its edit stream, so its deltas' digests are checked
// against the first. With a tracer, each variant's session is followed by
// a traced session of the same variant, so traced and untraced work see
// the same inputs and the same machine conditions.
func runSessions(seed int64, l *ledger, tr *tracer, budget time.Duration) (untraced, traced []*session, err error) {
	variants := ecoVariants
	if tr != nil {
		variants = ecoTracedVariants
	}
	start := time.Now()
	for {
		c0 := time.Now()
		for v := 0; v < variants; v++ {
			s, err := runSession(seed, v, l, nil)
			if err != nil {
				return nil, nil, err
			}
			untraced = append(untraced, s)
			if tr != nil {
				if s, err = runSession(seed, v, l, tr); err != nil {
					return nil, nil, err
				}
				traced = append(traced, s)
			}
		}
		if time.Since(start)+time.Since(c0) > budget {
			return untraced, traced, nil
		}
	}
}

// cycles flattens the cycles of every session and client.
func cycles(ss []*session) []cycleRecord {
	var out []cycleRecord
	for _, s := range ss {
		for _, cs := range s.cycles {
			out = append(out, cs...)
		}
	}
	return out
}

func cycleWalls(ss []*session) []float64 {
	var walls []float64
	for _, cy := range cycles(ss) {
		walls = append(walls, cy.wall.Seconds())
	}
	return walls
}

func runEco(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, ledger: newLedger()}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	untraced, traced, err := runSessions(cfg.seed, out.ledger, tr, cfg.seconds)
	if err != nil {
		return nil, err
	}
	batch := median(cycleWalls(untraced))
	out.samples = map[string][]float64{"cycle_wall_s": cycleWalls(untraced)}
	for _, s := range untraced {
		out.samples["setup_wall_s"] = append(out.samples["setup_wall_s"], s.setup.Seconds())
		out.samples["setup_cpu_s"] = append(out.samples["setup_cpu_s"], s.setupCPU.Seconds())
		out.samples["session_wall_s"] = append(out.samples["session_wall_s"], s.wall.Seconds())
		for _, c := range s.roundCPU {
			out.samples["cycle_cpu_s"] = append(out.samples["cycle_cpu_s"], c.Seconds()/float64(len(s.cycles)))
		}
	}
	for _, cy := range cycles(untraced) {
		for _, op := range cy.ops {
			if op.hit {
				out.samples["resubmit_s"] = append(out.samples["resubmit_s"], op.latency.Seconds())
				continue
			}
			out.samples["delta_s"] = append(out.samples["delta_s"], op.latency.Seconds())
			if op.st != nil && op.st.Response != nil {
				p := op.st.Response.Perf
				out.samples["delta_solver_s"] = append(out.samples["delta_solver_s"], p.TotalSec)
				out.samples["delta_lr_iterations"] = append(out.samples["delta_lr_iterations"], float64(p.LRIterations))
			}
		}
	}
	out.note("%d untraced sessions x %d clients x %d cycles (%d deltas + 1 resubmission each); bases %v @%g",
		len(untraced), len(ecoBoards), ecoCycles, ecoDeltas, ecoBoards, ecoScale)

	if !cfg.trace {
		var gtr []float64
		for _, s := range untraced[:ecoVariants] {
			for _, cs := range s.cycles {
				n := 0
				for _, cy := range cs {
					for _, op := range cy.ops {
						if !op.hit && op.st != nil && op.st.Response != nil && n < ecoGTRDeltas {
							gtr = append(gtr, float64(op.st.Response.Report.GTRMax))
							n++
						}
					}
				}
			}
		}
		var splits []split
		for _, cy := range cycles(untraced) {
			var sp split
			for _, op := range cy.ops {
				if !op.hit && op.st != nil && op.st.Response != nil {
					sp.add(op.st.Response.Perf)
				}
			}
			splits = append(splits, sp)
		}
		recordShares(out.metrics, splits)
		out.metrics["setup_s"] = median(out.samples["setup_cpu_s"])
		out.metrics["batch_cpu_s"] = median(out.samples["cycle_cpu_s"])
		out.metrics["gtr_max_geomean"] = geomean(gtr)
		out.note("set-up CPU %v s over %d sessions; wall: set-up %.4gs, cycle %.4gs (median over %d cycles)",
			out.samples["setup_cpu_s"], len(untraced), median(out.samples["setup_wall_s"]), batch, len(cycleWalls(untraced)))
		return out, nil
	}

	out.spans = tr
	var bases []*problem.Instance
	for v := 0; v < ecoTracedVariants; v++ {
		ins, err := ecoBases(cfg.seed, v)
		if err != nil {
			return nil, err
		}
		bases = append(bases, ins...)
	}
	ecoLayers(out, bases, traced, tr)
	out.metrics["process.peak_rss_mb"] = peakRSSMB()
	out.metrics["process.batch_wall_s"] = batch
	out.metrics["process.setup_wall_s"] = median(out.samples["setup_wall_s"])
	out.metrics["trace.overhead_s"] = median(cycleWalls(traced)) - batch
	out.metrics["trace.void_ops"] = 0 // the serving path is traced at the client calls, not decomposed
	out.metrics["trace.spans"] = float64(tr.count())
	return out, nil
}

// ecoLayers derives the per-layer metrics of a traced phase from the job
// statuses (backend timestamps, Response.Perf) and from replays of the
// problem, graph and route layers on the base instances.
func ecoLayers(out *outcome, bases []*problem.Instance, ss []*session, tr *tracer) {
	m := out.metrics
	var deltaLat, hitLat, queueWait, serveOver, coordOver, events []float64
	var routeMS, lrMS, lrIters, allocs, gaps, gains []float64
	var routeSec, lrSec, legalSec, totalSec, cellIterNS float64
	var cells, iters, ripup, reverted, ripped, converged, solves, hits int
	var wall time.Duration
	for _, s := range ss {
		wall += s.wall
	}
	all := cycles(ss)
	var writeMS []float64
	for _, cy := range all {
		for _, op := range cy.ops {
			if op.st == nil || op.st.Response == nil {
				continue
			}
			st, r := op.st, op.st.Response
			if op.hit {
				hitLat = append(hitLat, op.latency.Seconds())
				if st.Backend == "cache" {
					hits++
				}
				continue
			}
			deltaLat = append(deltaLat, op.latency.Seconds())
			queueWait = append(queueWait, st.Started.Sub(st.Created).Seconds()*1e3)
			serveOver = append(serveOver, (op.latency.Seconds()-r.Perf.TotalSec)*1e3)
			coordOver = append(coordOver, (op.latency-st.Finished.Sub(st.Created)).Seconds()*1e3)
			events = append(events, float64(st.Events))
			writeMS = append(writeMS, op.writeMS)
			routeMS = append(routeMS, r.Perf.RouteSec*1e3)
			lrMS = append(lrMS, r.Perf.LRSec*1e3)
			lrIters = append(lrIters, float64(r.Perf.LRIterations))
			allocs = append(allocs, float64(r.Perf.Allocs))
			routeSec += r.Perf.RouteSec
			lrSec += r.Perf.LRSec
			legalSec += r.Perf.LegalRefineSec
			totalSec += r.Perf.TotalSec
			cellIterNS += float64(op.cells) * float64(r.Report.Iterations)
			cells += op.cells
			iters += r.Report.Iterations
			ripup += r.RouteStats.RipUpRounds
			reverted += r.RouteStats.RevertedRound
			ripped += r.RouteStats.RippedNets
			solves++
			if r.Report.Converged {
				converged++
			}
			if r.Report.LowerBound > 0 {
				gaps = append(gaps, (r.Report.RelaxedZ-r.Report.LowerBound)/r.Report.LowerBound)
			}
			if r.Report.GTRMax > 0 {
				gains = append(gains, float64(r.Report.GTRNoRef)/float64(r.Report.GTRMax))
			}
		}
	}
	nc := float64(len(all))
	m["serve.delta_s_p50"] = median(deltaLat)
	m["serve.delta_s_p90"] = quantile(deltaLat, 0.9)
	m["serve.queue_wait_ms_p50"] = median(queueWait)
	m["serve.overhead_ms_p50"] = median(serveOver)
	m["serve.events_per_job"] = ratio(sum(events), float64(len(events)))
	m["serve.ops_per_s"] = float64(len(deltaLat)+len(hitLat)) / wall.Seconds()
	m["coord.hit_s_p50"] = median(hitLat)
	m["coord.cache_hit_ratio"] = ratio(float64(hits), float64(len(hitLat)))
	m["coord.overhead_ms_p50"] = median(coordOver)
	m["pipeline.delta_route_ms_p50"] = median(routeMS)
	m["pipeline.delta_lr_ms_p50"] = median(lrMS)
	m["pipeline.delta_lr_iterations_p50"] = median(lrIters)
	m["pipeline.allocs_per_solve"] = median(allocs)
	m["route.route_s"] = routeSec / nc
	m["route.share"] = ratio(routeSec, totalSec)
	m["route.ripup_rounds"] = float64(ripup) / nc
	m["route.reverted_rounds"] = float64(reverted) / nc
	m["route.ripped_nets"] = float64(ripped) / nc
	m["tdm.lr_s"] = lrSec / nc
	m["tdm.lr_iterations"] = float64(iters) / nc
	m["tdm.lr_cells"] = float64(cells) / nc
	m["tdm.lr_ns_per_cell_iter"] = ratio(lrSec*1e9, cellIterNS)
	m["tdm.lr_converged_share"] = ratio(float64(converged), float64(solves))
	m["tdm.lr_gap_at_stop"] = geomean(gaps)
	m["tdm.legal_refine_ms"] = legalSec * 1e3 / nc
	m["tdm.refine_gain"] = geomean(gains)
	m["problem.write_solution_ms"] = median(writeMS)

	// Replays on the base instances: the parse the coordinator and the
	// backend perform on every submission, and the path-independent graph
	// and route costs.
	var parseMS []float64
	for _, in := range bases {
		var text bytes.Buffer
		if err := problem.WriteInstance(&text, in); err != nil {
			out.ledger.fail(in.Name+"/parse-replay", err)
			continue
		}
		for i := 0; i < 5; i++ {
			root := tr.op("problem.replay")
			sp := root.child("problem.ParseInstance")
			t0 := time.Now()
			_, err := problem.ParseInstance(in.Name, bytes.NewReader(text.Bytes()))
			parseMS = append(parseMS, time.Since(t0).Seconds()*1e3)
			sp.end()
			root.end()
			if err != nil {
				out.ledger.fail(in.Name+"/parse-replay", err)
			}
		}
	}
	m["problem.parse_ms"] = median(parseMS)
	replayRoute(m, bases, tr)
	out.note("traced: %d cycles, %d deltas (p90 over %d samples, %d beyond), %d resubmissions (%d cache hits)",
		len(all), len(deltaLat), len(deltaLat), len(deltaLat)/10, len(hitLat), hits)
}
