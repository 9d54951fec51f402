package serve

import (
	"context"
	"sync"
	"time"

	"tdmroute"
	"tdmroute/internal/exp"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is solving it.
	StateRunning State = "running"
	// StateDone: finished with a legal solution — possibly a best-so-far
	// incumbent; Response.Degraded distinguishes a full solve from a
	// curtailed one.
	StateDone State = "done"
	// StateFailed: finished with an error and no solution (malformed
	// instance reached the solver, or a contained panic before any
	// incumbent existed).
	StateFailed State = "failed"
	// StateCanceled: cancelled (DELETE or deadline) before any incumbent
	// existed.
	StateCanceled State = "canceled"
	// StateRejected: evicted from the queue by a draining shutdown; the
	// job never ran.
	StateRejected State = "rejected"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateRejected:
		return true
	}
	return false
}

// Event is one entry of a job's progress stream, delivered over SSE in
// order. Seq is the position in the stream; unused fields are omitted.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "round", "lr", "done"
	// State is set on "state" and "done" events.
	State State `json:"state,omitempty"`
	// Round is the feedback rounds started so far ("round" and "lr").
	Round int `json:"round,omitempty"`
	// Iter, Z, LB carry the LR convergence series ("lr" events).
	Iter int     `json:"iter,omitempty"`
	Z    float64 `json:"z,omitempty"`
	LB   float64 `json:"lb,omitempty"`
	// Error is set on "done" events of failed jobs.
	Error string `json:"error,omitempty"`
}

// JobStatus is the wire representation of a job served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Mode  string `json:"mode"`
	Bench string `json:"bench,omitempty"`
	// BaseID names the job whose warm session a delta job re-solves.
	BaseID string `json:"base_id,omitempty"`
	// NumEdges is the instance's edge count; solution parsers need it.
	NumEdges int       `json:"num_edges"`
	Created  time.Time `json:"created"`
	// Started/Finished are the zero time until the job reaches those
	// states.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Events is the progress events recorded so far.
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
	// Retained reports that the job's warm solver session is currently
	// resident on this node, i.e. a delta against this job can run here.
	// Coordinators use it to discover where ECO re-solves must be routed
	// (and when a session has been lost to eviction or a restart).
	Retained bool `json:"retained,omitempty"`
	// Backend names the node a job ran on. Only the coordinator tier
	// (tdmcoord) sets it — a single tdmroutd leaves it empty, and a job
	// answered from the coordinator's result cache reports "cache".
	Backend string `json:"backend,omitempty"`
	// Response is set once the job finished with a result (State done).
	Response *tdmroute.Response `json:"response,omitempty"`
	// Telemetry is the per-job PerfRow (stage walls, work counters,
	// solution digest), present for jobs that produced a solution.
	Telemetry *exp.PerfRow `json:"telemetry,omitempty"`
}

// job is one submitted solve tracked by the server.
type job struct {
	id       string
	req      tdmroute.Request
	deadline time.Duration
	numEdges int
	created  time.Time
	// baseID is the warm-session owner for delta jobs.
	baseID string
	// onFinish fires exactly once when the job reaches a terminal state, by
	// whatever path (solved, failed, cancelled while queued, rejected by a
	// drain). Delta jobs use it to release or drop their warm session.
	onFinish func()

	mu       sync.Mutex
	state    State
	cancelFn context.CancelFunc // set while running
	resp     *tdmroute.Response
	err      error
	row      *exp.PerfRow
	// text is the solution's contest text, rendered once at finish: the
	// telemetry digest covers exactly these bytes, and text downloads
	// serve them verbatim.
	text     []byte
	started  time.Time
	finished time.Time
	events   []Event
	// notify is closed and replaced whenever an event is appended;
	// subscribers re-fetch and re-arm.
	notify chan struct{}
}

func newJob(id string, req tdmroute.Request, deadline time.Duration) *job {
	return &job{
		id:       id,
		req:      req,
		deadline: deadline,
		numEdges: req.Instance.G.NumEdges(),
		created:  time.Now(),
		state:    StateQueued,
		//lint:ignore rawgo job event broadcast channel, not solver parallelism: closed to wake SSE subscribers
		notify: make(chan struct{}),
	}
}

// appendEventLocked records an event and wakes subscribers; j.mu held.
func (j *job) appendEventLocked(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.notify)
	//lint:ignore rawgo job event broadcast channel, not solver parallelism: re-armed after each broadcast
	j.notify = make(chan struct{})
}

// begin transitions queued→running and installs the cancel function. It
// returns false when the job is no longer queued (cancelled or rejected
// while waiting); the worker must then drop it without running.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancelFn = cancel
	j.started = time.Now()
	j.appendEventLocked(Event{Type: "state", State: StateRunning})
	return true
}

// progress records one solver progress event.
func (j *job) progress(p tdmroute.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch p.Kind {
	case tdmroute.ProgressRound:
		j.appendEventLocked(Event{Type: "round", Round: p.Round + 1})
	default:
		j.appendEventLocked(Event{Type: "lr", Round: p.Round, Iter: p.Iter, Z: p.Z, LB: p.LB})
	}
}

// finish records the terminal state. It is a no-op when the job already
// reached one (a queued job cancelled by DELETE and later swept by drain).
func (j *job) finish(state State, resp *tdmroute.Response, err error, row *exp.PerfRow, text []byte) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.resp = resp
	j.err = err
	j.row = row
	j.text = text
	j.cancelFn = nil
	j.finished = time.Now()
	e := Event{Type: "done", State: state}
	if err != nil {
		e.Error = err.Error()
	}
	j.appendEventLocked(e)
	hook := j.onFinish
	j.onFinish = nil
	j.mu.Unlock()
	if hook != nil {
		hook()
	}
	return true
}

// requestCancel implements DELETE: a queued job transitions to canceled
// immediately (reported via the returned bool so the server can record the
// outcome); a running job has its context cancelled and finishes on the
// worker with its best-so-far incumbent; a terminal job is untouched. The
// returned state is the state after the call.
func (j *job) requestCancel() (State, bool) {
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		j.appendEventLocked(Event{Type: "done", State: StateCanceled, Error: context.Canceled.Error()})
		hook := j.onFinish
		j.onFinish = nil
		j.mu.Unlock()
		if hook != nil {
			hook()
		}
		return StateCanceled, true
	case j.state == StateRunning:
		if j.cancelFn != nil {
			j.cancelFn()
		}
		j.mu.Unlock()
		return StateRunning, false
	}
	st := j.state
	j.mu.Unlock()
	return st, false
}

// eventsSince returns a copy of the events from seq on, the clamped position
// actually used, the channel that will be closed when more arrive, and
// whether the stream is complete (the job is terminal and every event has
// been handed out). seq is clamped to [0, len(events)]: a resume cursor
// beyond the log (a bogus Last-Event-ID) replays nothing and follows the
// live tail instead of parking the subscriber forever on a completion
// condition it can never satisfy.
func (j *job) eventsSince(seq int) ([]Event, int, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq > len(j.events) {
		seq = len(j.events)
	}
	evs := append([]Event(nil), j.events[seq:]...)
	return evs, seq, j.notify, j.state.Terminal() && seq+len(evs) == len(j.events)
}

// currentState returns the job's state.
func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// solution returns the job's solution and its contest text, or nil while
// it has none.
func (j *job) solution() (*tdmroute.Solution, []byte, *tdmroute.Degraded) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resp == nil {
		return nil, nil, nil
	}
	return j.resp.Solution, j.text, j.resp.Degraded
}

// status snapshots the job for the status endpoint.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:        j.id,
		State:     j.state,
		Mode:      j.req.Mode.String(),
		Bench:     j.req.Instance.Name,
		BaseID:    j.baseID,
		NumEdges:  j.numEdges,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Events:    len(j.events),
		Response:  j.resp,
		Telemetry: j.row,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
