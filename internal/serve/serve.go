// Package serve is the solver-as-a-service core behind cmd/tdmroutd: a
// stdlib-only HTTP job server wrapping tdmroute.Run. Jobs enter a bounded
// queue and are solved by a fixed worker pool; each job runs under its own
// context with an optional deadline, so cancellation (DELETE) and deadline
// expiry degrade a run to its best-so-far legal incumbent through the
// package's anytime machinery instead of losing it. Progress (feedback
// rounds and LR iterations) streams over SSE, worker panics are contained
// per job by par.Capture, and a draining Shutdown finishes in-flight jobs
// with their incumbents while rejecting queued and newly submitted ones
// with Retry-After.
//
// Endpoints:
//
//	POST   /v1/jobs             submit an instance (text, JSON, or binary;
//	                            multipart with a fixed routing for assign mode)
//	GET    /v1/jobs/{id}        job status + response + telemetry
//	GET    /v1/jobs/{id}/events progress stream (SSE)
//	GET    /v1/jobs/{id}/solution solution in any solution format
//	DELETE /v1/jobs/{id}        cancel (running jobs keep their incumbent)
//	GET    /metrics             text metrics: queue depth, jobs by outcome,
//	                            per-stage wall histograms, GTR distribution
//	GET    /healthz             liveness (also reports draining)
//
// The raw concurrency in this package (worker goroutines, the queue
// channel, event broadcast channels) is server plumbing, not solver
// parallelism; solver determinism is untouched because every solve still
// runs through tdmroute.Run. Each primitive carries a lint:ignore rawgo
// justification.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tdmroute"
	"tdmroute/internal/exp"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// Config tunes the server.
type Config struct {
	// Workers is the solve worker pool size: the number of jobs in flight
	// at once. Zero selects 2; negative starts no workers (jobs queue
	// until Shutdown rejects them — useful for drain rehearsals and
	// tests).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submissions beyond
	// it are rejected with 503 and Retry-After. Zero selects 16.
	QueueDepth int
	// DefaultDeadline applies to jobs submitted without one (0 = none).
	DefaultDeadline time.Duration
	// MaxDeadline clamps per-job deadlines; jobs without a deadline get
	// it too (0 = unlimited).
	MaxDeadline time.Duration
	// MaxBodyBytes caps the request body of a submission. Zero selects
	// 64 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After value on 503 rejections. Zero
	// selects 1s.
	RetryAfter time.Duration
	// MaxWarmSessions bounds the warm solver sessions retained for delta
	// re-solves (?retain=1 submissions). Retaining beyond the bound evicts
	// the least recently used idle session. Zero selects 4; negative
	// disables retention.
	MaxWarmSessions int
	// SolveOptions is the base solver configuration; per-job query
	// parameters (epsilon, maxiter, ripup, workers, pow2) override it.
	SolveOptions tdmroute.Options
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxWarmSessions == 0 {
		c.MaxWarmSessions = 4
	}
	return c
}

// Server is the job server. Create it with New, expose Handler over HTTP,
// and stop it with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	queue chan *job
	// stopc closes when Shutdown begins: workers stop picking up jobs.
	stopc chan struct{}
	//lint:ignore rawgo worker-pool lifecycle accounting, not solver parallelism: Shutdown waits for workers to finish their in-flight jobs
	wg       sync.WaitGroup
	draining atomic.Bool
	stopOnce sync.Once

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int

	warm    *warmRegistry
	metrics metrics
}

// New starts a server: the worker pool runs until Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		jobs: map[string]*job{},
		//lint:ignore rawgo bounded job queue, not solver parallelism: backpressure boundary between HTTP submission and the worker pool
		queue: make(chan *job, cfg.QueueDepth),
		//lint:ignore rawgo shutdown signal channel, not solver parallelism: closing it stops the worker pool
		stopc: make(chan struct{}),
		warm:  newWarmRegistry(cfg.MaxWarmSessions),
	}
	s.metrics.init()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		//lint:ignore rawgo solve worker pool, not solver parallelism: each worker runs whole jobs through tdmroute.Run, whose internal parallelism stays in internal/par
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// register assigns an id and tracks the job; enqueue must already have
// succeeded. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
}

// lookup finds a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// submit queues a new job. setup, when non-nil, configures the job (delta
// base id, finish hook) before it becomes visible to any worker. It returns
// false when the server is draining or the queue is full.
func (s *Server) submit(req tdmroute.Request, deadline time.Duration, setup func(*job)) (*job, bool) {
	deadline = s.clampDeadline(deadline)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The draining check and the enqueue happen under one lock against
	// Shutdown, so no job can slip into the queue after the drain sweep.
	if s.draining.Load() {
		s.metrics.submitRejected.Add(1)
		return nil, false
	}
	s.nextID++
	j := newJob(jobID(s.nextID), req, deadline)
	if setup != nil {
		setup(j)
	}
	select {
	case s.queue <- j:
	default:
		s.metrics.submitRejected.Add(1)
		return nil, false
	}
	s.registerLocked(j)
	s.metrics.accepted.Add(1)
	s.logf("job %s: queued (mode %s, deadline %v)", j.id, req.Mode, deadline)
	return j, true
}

func (s *Server) clampDeadline(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d
}

func jobID(n int) string {
	// Zero-padded to seven digits so lexical and submission order agree in
	// listings; ids beyond that simply grow a digit. (A fixed-width buffer
	// here once truncated ids above 9,999,999 to their low seven digits,
	// colliding with earlier jobs.)
	return fmt.Sprintf("j%07d", n)
}

// worker is one pool goroutine: it runs jobs until Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case j := <-s.queue:
			if s.draining.Load() {
				s.reject(j)
				continue
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job under its own context and records the outcome.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	if j.deadline > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), j.deadline)
	}
	defer cancel()
	if !j.begin(cancel) {
		// Cancelled or rejected while queued; already terminal.
		return
	}
	// A drain that started between this worker's dequeue and begin() has
	// already swept the running jobs — this one was still queued then and
	// would run to completion un-cancelled. Observing the drain here closes
	// that window: the job degrades to its best-so-far incumbent like every
	// other in-flight job.
	if s.draining.Load() {
		cancel()
	}
	req := j.req
	req.OnProgress = j.progress
	var resp *tdmroute.Response
	// Contain any panic that escapes the solve: the job fails, the
	// worker survives, and the server keeps serving.
	err := par.Capture(func() error {
		var rerr error
		resp, rerr = tdmroute.Run(ctx, req)
		return rerr
	})
	s.finishJob(j, resp, err)
}

// finishJob classifies a finished solve and records it. An interrupted run
// that still produced a legal incumbent arrives as resp with Degraded set
// and a nil error; an error can still ride along with an incumbent (a
// ModeIterative hard failure after successful rounds), and only runs with no
// possible incumbent lose their response.
func (s *Server) finishJob(j *job, resp *tdmroute.Response, err error) {
	state := StateDone
	outcome := outcomeDone
	switch {
	case err != nil && resp != nil && resp.Solution != nil:
		// A hard error with a legal incumbent: keep the solution (it
		// validated in an earlier round) and report the run as degraded,
		// with the error on the job. Discarding it here used to throw away
		// every kept round of an iterative solve.
		outcome = outcomeDegraded
		if resp.Degraded == nil {
			resp.Degraded = &tdmroute.Degraded{
				Stage:          tdmroute.StageFeedback,
				Cause:          err,
				LRIterations:   resp.Report.Iterations,
				FeedbackRounds: resp.RoundsRun,
				IncumbentGTR:   resp.Report.GTRMax,
			}
		}
	case err != nil:
		resp = nil
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state, outcome = StateCanceled, outcomeCanceled
		} else {
			state, outcome = StateFailed, outcomeFailed
		}
	case resp.Degraded != nil:
		outcome = outcomeDegraded
	}
	// Strip the warm handle off the response before it is recorded: it
	// never travels over the wire, and retained sessions live in the
	// registry, keyed by the job that built them. Delta jobs return their
	// base job's handle, which stays under the base id (the finish hook
	// releases or drops it).
	if resp != nil && resp.Warm != nil {
		h := resp.Warm
		resp.Warm = nil
		if j.req.Mode != tdmroute.ModeDelta {
			if evicted, retained := s.warm.put(j.id, h); retained {
				s.metrics.warmRetained.Add(1)
				s.metrics.warmEvicted.Add(int64(evicted))
				s.logf("job %s: warm session retained (%d evicted)", j.id, evicted)
			}
		}
	}
	// The solution is rendered to contest text once, here: the telemetry
	// digest, the text download and a coordinator's verification all see
	// these bytes. The job keeps them for its lifetime, so they are copied
	// out of the buffer's doubling slack.
	var row *exp.PerfRow
	var text []byte
	if resp != nil && resp.Solution != nil {
		var buf bytes.Buffer
		if problem.WriteSolution(&buf, resp.Solution) == nil {
			text = bytes.Clone(buf.Bytes())
		}
		if text != nil && !j.started.IsZero() {
			r := exp.RowFromText(j.req.Instance.Name, resp, time.Since(j.started), text)
			row = &r
		}
	}
	if !j.finish(state, resp, err, row, text) {
		return
	}
	s.metrics.observe(outcome, resp)
	if err != nil {
		s.logf("job %s: %s: %v", j.id, state, err)
	} else {
		s.logf("job %s: %s (GTR %d, degraded=%v)", j.id, state, resp.Report.GTRMax, resp.Degraded != nil)
	}
}

// reject evicts a queued job during drain.
func (s *Server) reject(j *job) {
	if j.finish(StateRejected, nil, errDraining, nil, nil) {
		s.metrics.observe(outcomeRejected, nil)
		s.logf("job %s: rejected (draining)", j.id)
	}
}

var errDraining = errors.New("serve: server draining; resubmit elsewhere or retry later")

// cancelJob implements DELETE.
func (s *Server) cancelJob(j *job) State {
	state, wasQueued := j.requestCancel()
	if wasQueued {
		s.metrics.observe(outcomeCanceled, nil)
		s.logf("job %s: canceled while queued", j.id)
	}
	return state
}

// Shutdown drains the server: submissions are rejected from this point on,
// queued jobs are rejected (their submitters see state "rejected" — nothing
// is lost silently), and in-flight jobs are cancelled so they finish with
// their best-so-far incumbents. It returns once every worker has finished,
// or with ctx's error if that takes longer than the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopc) })

	// Reject everything still queued. Workers racing on the same channel
	// also reject (never run) jobs they pick up while draining.
	for {
		select {
		case j := <-s.queue:
			s.reject(j)
			continue
		default:
		}
		break
	}
	// Cancel in-flight jobs: they finish with best-so-far incumbents.
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.currentState() == StateRunning {
			j.requestCancel()
		}
	}
	s.mu.Unlock()

	//lint:ignore rawgo shutdown completion signal, not solver parallelism: bridges WaitGroup completion to the caller's context
	done := make(chan struct{})
	//lint:ignore rawgo shutdown waiter, not solver parallelism: single goroutine closing the completion channel
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// A worker may have handed its last job to the queue path between the
	// sweeps; one final pass guarantees no queued job is left untracked.
	for {
		select {
		case j := <-s.queue:
			s.reject(j)
			continue
		default:
		}
		break
	}
	s.logf("drained: %s", s.metrics.summary())
	return nil
}
