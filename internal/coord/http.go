package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tdmroute/internal/serve"
)

func (co *Coordinator) routes() {
	co.mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	co.mux.HandleFunc("POST /v1/jobs/{id}/delta", co.handleDelta)
	co.mux.HandleFunc("GET /v1/jobs/{id}", co.handleStatus)
	co.mux.HandleFunc("GET /v1/jobs/{id}/events", co.handleEvents)
	co.mux.HandleFunc("GET /v1/jobs/{id}/solution", co.handleSolution)
	co.mux.HandleFunc("DELETE /v1/jobs/{id}", co.handleCancel)
	co.mux.HandleFunc("GET /v1/backends", co.handleBackends)
	co.mux.HandleFunc("GET /metrics", co.handleMetrics)
	co.mux.HandleFunc("GET /healthz", co.handleHealthz)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (co *Coordinator) unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(int(co.cfg.RetryAfter.Round(time.Second)/time.Second)))
	httpError(w, http.StatusServiceUnavailable, "%s", reason)
}

func accepted(w http.ResponseWriter, st *serve.JobStatus) {
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(st)
}

// handleSubmit accepts the same submissions as a single tdmroutd node,
// resolves them against the result cache, and dispatches misses to a
// backend chosen by rendezvous placement. A cache hit creates a job that is
// born terminal — no backend, no solver, the result replayed from content
// address — which the acceptance metrics (cache_hits_total vs backend
// accepted counters) make observable.
func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		co.metrics.submitRejected.Add(1)
		co.unavailable(w, "coordinator is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	sub, err := serve.ParseSubmit(r)
	if err != nil {
		serve.RejectBody(w, "", err)
		return
	}
	j := newCJob(sub)
	j.key = cacheKey(sub)
	co.metrics.accepted.Add(1)

	// Retained submissions need a live warm session, so they always run;
	// everything else may be answered from the content-addressed cache.
	if !sub.Retain {
		if e := co.cache.get(j.key); e != nil {
			co.metrics.cacheHits.Add(1)
			co.register(j)
			j.mu.Lock()
			j.backend = "cache"
			j.mu.Unlock()
			st := e.status
			co.finishJob(j, serve.StateDone, &st, e.sol, e.text, nil)
			co.logf("job %s: cache hit (%s)", j.id, j.key[:12])
			accepted(w, j.status())
			return
		}
		co.metrics.cacheMisses.Add(1)
	}
	co.register(j)
	co.wg.Add(1)
	//lint:ignore rawgo per-job dispatch goroutine, not solver parallelism: proxies one job's lifetime across backends
	go co.dispatch(j)
	accepted(w, j.status())
}

// handleDelta forwards an ECO re-solve to the backend holding the base
// job's warm session. The forwarding is synchronous so the backend's
// conflict answers (409 busy, 410 gone) surface as this request's response;
// only the progress proxying runs on after 202. A base whose backend has
// since died — or that was answered from the cache and never ran anywhere —
// is a deterministic 410: the warm session does not exist.
func (co *Coordinator) handleDelta(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		co.metrics.submitRejected.Add(1)
		co.unavailable(w, "coordinator is draining")
		return
	}
	base := co.lookup(r.PathValue("id"))
	if base == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !base.terminal() {
		httpError(w, http.StatusConflict, "base job %s is not finished; deltas target finished jobs", base.id)
		return
	}
	backendName, remoteID := base.placement()
	if backendName == "" || backendName == "cache" || remoteID == "" {
		httpError(w, http.StatusGone,
			"job %s has no warm session on any backend (cache hits and failed jobs retain nothing)", base.id)
		return
	}
	b := co.backendByName(backendName)
	if b == nil || !b.eligible() {
		httpError(w, http.StatusGone, "job %s's warm session is on backend %s, which is down", base.id, backendName)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	var doc serve.DeltaDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		serve.RejectBody(w, "bad delta body: ", err)
		return
	}
	var deadline time.Duration
	if v := r.URL.Query().Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad deadline %q", v)
			return
		}
		deadline = d
	}

	ctx, cancel := co.unaryCtx(r.Context())
	st, err := b.client.SubmitDelta(ctx, remoteID, doc, deadline)
	cancel()
	if err != nil {
		var apiErr *serve.APIError
		if errors.As(err, &apiErr) {
			b.markOK()
			if apiErr.Status == http.StatusNotFound {
				// The backend restarted and forgot the base job; the warm
				// session died with the old process. Same contract as an
				// evicted session: gone, not a server error.
				httpError(w, http.StatusGone, "job %s's warm session was lost (backend %s restarted)", base.id, b.name)
				return
			}
			httpError(w, apiErr.Status, "%s", apiErr.Message)
			return
		}
		co.observeError(b, err)
		co.unavailable(w, fmt.Sprintf("backend %s unreachable: %v", b.name, err))
		return
	}

	j := newCJob(serve.SubmitRequest{})
	j.isDelta = true
	j.baseID = base.id
	co.metrics.accepted.Add(1)
	co.register(j)
	j.setPlacement(b.name, st.ID)
	co.wg.Add(1)
	//lint:ignore rawgo per-job proxy goroutine, not solver parallelism: follows one delta job on its pinned backend
	go co.runDelta(j, b)
	accepted(w, j.status())
}

func (co *Coordinator) jobFor(w http.ResponseWriter, r *http.Request) *cjob {
	j := co.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := co.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := co.jobFor(w, r)
	if j == nil {
		return
	}
	state := co.cancelJob(r.Context(), j)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": j.id, "state": state})
}

// handleEvents streams the coordinator's re-sequenced event log as SSE,
// identically to a single node: replay from the Last-Event-ID cursor, then
// live events until the job is terminal. Clients resume across coordinator
// reconnects exactly as they would against tdmroutd; backend loss and
// re-dispatch are invisible here because the log is already deduplicated.
func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := co.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		next = id + 1
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, from, notify, terminal := j.eventsSince(next)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
		}
		next = from + len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleSolution serves the verified solution. The text format returns the
// exact bytes the digest was checked against — the unit of the replay
// byte-identity guarantee; json and binary are rendered from the parsed
// solution through the same writers a single node uses.
func (co *Coordinator) handleSolution(w http.ResponseWriter, r *http.Request) {
	j := co.jobFor(w, r)
	if j == nil {
		return
	}
	if !j.terminal() {
		httpError(w, http.StatusConflict, "job %s is not finished; no solution yet", j.id)
		return
	}
	sol, text, final := j.solution()
	if sol == nil {
		httpError(w, http.StatusConflict, "job %s produced no solution", j.id)
		return
	}
	if final != nil && final.Response != nil && final.Response.Degraded != nil {
		w.Header().Set("X-Tdmroute-Degraded", string(final.Response.Degraded.Stage))
	}
	serve.WriteSolutionResponse(w, r.URL.Query().Get("format"), sol, text)
}

// handleBackends reports each backend's breaker state — the coordinator's
// own view of the fleet, for operators and the smoke harness.
func (co *Coordinator) handleBackends(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name     string `json:"name"`
		URL      string `json:"url"`
		Breaker  string `json:"breaker"`
		Failures int64  `json:"failures_total"`
		Opens    int64  `json:"breaker_opens_total"`
	}
	var rows []row
	for _, b := range co.backends {
		rows = append(rows, row{
			Name:     b.name,
			URL:      b.url,
			Breaker:  b.breakerState().String(),
			Failures: b.failures.Load(),
			Opens:    b.opens.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	co.writeMetrics(w)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if co.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
