package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

func testInstance(t *testing.T) *tdmroute.Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Name = "synopsys01"
	return in
}

// startServer runs a server over httptest and returns its typed client.
// Cleanup drains the pool before closing the listener.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, &Client{BaseURL: ts.URL}
}

func solutionText(t *testing.T, sol *tdmroute.Solution) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := problem.WriteSolution(&buf, sol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metricValue extracts one sample (metric name including any label set)
// from the text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestServerEndToEnd drives the whole API: a dozen jobs across all three
// wire formats and all three modes run concurrently on an 8-worker pool,
// every solution validates, single-mode solutions are byte-identical to a
// local solve, every text download is the bytes the job's telemetry
// digest covers, and the metrics counters reconcile with the submissions.
func TestServerEndToEnd(t *testing.T) {
	in := testInstance(t)
	ref, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	refText := solutionText(t, ref.Solution)
	refIter, err := tdmroute.Run(context.Background(),
		tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	refIterText := solutionText(t, refIter.Solution)

	_, c := startServer(t, Config{Workers: 8, QueueDepth: 32})
	ctx := context.Background()

	subs := []struct {
		label string
		req   SubmitRequest
	}{
		{"single-text", SubmitRequest{Instance: in, Format: FormatText}},
		{"single-json", SubmitRequest{Instance: in, Format: FormatJSON}},
		{"single-binary", SubmitRequest{Instance: in, Format: FormatBinary}},
		{"iterative", SubmitRequest{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 2}},
		{"assign", SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly,
			Routing: ref.Solution.Routes, Format: FormatJSON}},
		{"assign-text", SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly,
			Routing: ref.Solution.Routes, Format: FormatText}},
	}
	const jobs = 12
	ids := make([]string, jobs)
	labels := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		sub := subs[i%len(subs)]
		st, err := c.Submit(ctx, sub.req)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.label, err)
		}
		ids[i], labels[i] = st.ID, sub.label
	}

	formats := []Format{FormatText, FormatJSON, FormatBinary}
	for i, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s (%s): %v", id, labels[i], err)
		}
		if st.State != StateDone {
			t.Fatalf("%s (%s): state %s, error %q", id, labels[i], st.State, st.Error)
		}
		if st.Response == nil || st.Response.Degraded != nil {
			t.Fatalf("%s (%s): response %+v", id, labels[i], st.Response)
		}
		if st.Telemetry == nil || len(st.Telemetry.SolutionSHA256) != 64 {
			t.Fatalf("%s (%s): missing telemetry: %+v", id, labels[i], st.Telemetry)
		}
		sol, err := c.Solution(ctx, id, formats[i%len(formats)])
		if err != nil {
			t.Fatalf("%s (%s): solution: %v", id, labels[i], err)
		}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("%s (%s): invalid solution: %v", id, labels[i], err)
		}
		// Every job reproduces a local reference pipeline on the same
		// instance and options, so the wire round-trip must be
		// byte-identical to the matching local solve.
		want := refText
		if labels[i] == "iterative" {
			want = refIterText
		}
		if got := solutionText(t, sol); !bytes.Equal(got, want) {
			t.Fatalf("%s (%s): solution bytes diverged from local solve", id, labels[i])
		}
		// The text download is the rendering the telemetry digested.
		text, err := c.SolutionBytes(ctx, id, FormatText)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(text); !bytes.Equal(text, want) || hex.EncodeToString(sum[:]) != st.Telemetry.SolutionSHA256 {
			t.Fatalf("%s (%s): text download digests to %x, telemetry says %s", id, labels[i], sum, st.Telemetry.SolutionSHA256)
		}
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "tdmroutd_jobs_accepted_total"); got != jobs {
		t.Errorf("accepted_total = %v, want %d", got, jobs)
	}
	if got := metricValue(t, metrics, `tdmroutd_jobs_total{outcome="done"}`); got != jobs {
		t.Errorf(`jobs_total{done} = %v, want %d`, got, jobs)
	}
	if got := metricValue(t, metrics, `tdmroutd_stage_seconds_count{stage="lr"}`); got != jobs {
		t.Errorf("lr stage histogram count = %v, want %d", got, jobs)
	}
	if got := metricValue(t, metrics, "tdmroutd_gtr_count"); got != jobs {
		t.Errorf("gtr histogram count = %v, want %d", got, jobs)
	}
	if got := metricValue(t, metrics, "tdmroutd_queue_depth"); got != 0 {
		t.Errorf("queue_depth = %v, want 0", got)
	}
	if ok, err := c.Healthy(ctx); err != nil || !ok {
		t.Errorf("Healthy = %v, %v; want true", ok, err)
	}
}

// errStopStream is the sentinel a test callback uses to leave Stream early.
var errStopStream = errors.New("stop streaming")

// slowSubmit is a submission tuned to spend a long time in LR so tests can
// deterministically interrupt it mid-iteration.
func slowSubmit(in *tdmroute.Instance) SubmitRequest {
	return SubmitRequest{Instance: in, Epsilon: 1e-12, MaxIter: 2_000_000}
}

// awaitLR streams the job until its first LR iteration event, proving the
// solve is mid-LR.
func awaitLR(t *testing.T, c *Client, id string) {
	t.Helper()
	err := c.Stream(context.Background(), id, func(e Event) error {
		if e.Type == "lr" {
			return errStopStream
		}
		if e.Type == "done" {
			return fmt.Errorf("job %s finished before its first LR event (state %s)", id, e.State)
		}
		return nil
	})
	if !errors.Is(err, errStopStream) {
		t.Fatal(err)
	}
}

// TestServerCancelMidLR pins the anytime contract over the wire: DELETE
// while the solver is mid-LR yields a legal best-so-far solution with
// Degraded populated, not a lost job.
func TestServerCancelMidLR(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, slowSubmit(in))
	if err != nil {
		t.Fatal(err)
	}
	awaitLR(t, c, st.ID)
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done with a best-so-far incumbent", final.State, final.Error)
	}
	if final.Response == nil || final.Response.Degraded == nil {
		t.Fatal("cancelled job did not report Degraded")
	}
	if c := final.Response.Degraded.Cause; c == nil || !strings.Contains(c.Error(), context.Canceled.Error()) {
		t.Fatalf("Degraded.Cause = %v, want context canceled", c)
	}
	sol, err := c.Solution(ctx, st.ID, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("best-so-far solution invalid: %v", err)
	}
}

// TestServerDeadline checks per-job deadlines: an expiring deadline
// degrades the job to its incumbent with a deadline cause.
func TestServerDeadline(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	req := slowSubmit(in)
	req.Deadline = 150 * time.Millisecond
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Response == nil || final.Response.Degraded == nil {
		t.Fatalf("deadline job: state %s, response %+v; want done + Degraded", final.State, final.Response)
	}
	if c := final.Response.Degraded.Cause; c == nil || !strings.Contains(c.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("Degraded.Cause = %v, want deadline exceeded", c)
	}
	sol, err := c.Solution(ctx, st.ID, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("deadline incumbent invalid: %v", err)
	}
}

// TestServerPanicContainment injects a panic into a parallel chunk of a
// running job, chaos-style: whatever the outcome (a typed failure or a
// recovered, valid solution), the worker pool must survive and keep
// serving.
func TestServerPanicContainment(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	var count int64
	par.SetChunkHook(func(chunk int) {
		if atomic.AddInt64(&count, 1) == 3 {
			panic("serve test: injected panic")
		}
	})
	defer par.SetChunkHook(nil)
	st, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	par.SetChunkHook(nil)
	switch final.State {
	case StateDone:
		sol, err := c.Solution(ctx, st.ID, FormatText)
		if err != nil {
			t.Fatal(err)
		}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("recovered solution invalid: %v", err)
		}
	case StateFailed:
		if !strings.Contains(final.Error, "panic") {
			t.Fatalf("failed job's error does not name the panic: %q", final.Error)
		}
	default:
		t.Fatalf("state = %s, want done or failed", final.State)
	}

	// The worker survived the panic: the next job must complete normally.
	st2, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone || final2.Response == nil || final2.Response.Degraded != nil {
		t.Fatalf("post-panic job: state %s, error %q", final2.State, final2.Error)
	}
}

// TestServerQueueFull checks backpressure with no workers consuming: the
// queue bound rejects with 503 + Retry-After, DELETE cancels a queued job
// in place, and a drain rejects the rest — every accepted job still reaches
// a terminal state the metrics account for.
func TestServerQueueFull(t *testing.T) {
	in := testInstance(t)
	s, c := startServer(t, Config{Workers: -1, QueueDepth: 2})
	ctx := context.Background()

	st1, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, SubmitRequest{Instance: in})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("third submit: err = %v, want a 503 APIError", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("503 rejection carries no Retry-After (got %v)", apiErr.RetryAfter)
	}

	if err := c.Cancel(ctx, st1.ID); err != nil {
		t.Fatal(err)
	}
	got1, err := c.Status(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got1.State != StateCanceled {
		t.Fatalf("cancelled queued job state = %s, want canceled", got1.State)
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatal(err)
	}
	got2, err := c.Status(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got2.State != StateRejected {
		t.Fatalf("drained queued job state = %s, want rejected", got2.State)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Instance: in}); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("submit while draining: err = %v, want a 503 APIError", err)
	}
	if ok, _ := c.Healthy(ctx); ok {
		t.Error("Healthy = true on a draining server")
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "tdmroutd_jobs_accepted_total"); got != 2 {
		t.Errorf("accepted_total = %v, want 2", got)
	}
	if got := metricValue(t, metrics, "tdmroutd_submit_rejected_total"); got != 2 {
		t.Errorf("submit_rejected_total = %v, want 2", got)
	}
	if got := metricValue(t, metrics, `tdmroutd_jobs_total{outcome="canceled"}`); got != 1 {
		t.Errorf(`jobs_total{canceled} = %v, want 1`, got)
	}
	if got := metricValue(t, metrics, `tdmroutd_jobs_total{outcome="rejected"}`); got != 1 {
		t.Errorf(`jobs_total{rejected} = %v, want 1`, got)
	}
	if got := metricValue(t, metrics, "tdmroutd_draining"); got != 1 {
		t.Errorf("draining = %v, want 1", got)
	}
}

// TestServerDrainBestSoFar is the graceful-drain contract: Shutdown lets
// the in-flight job finish with its best-so-far incumbent, rejects the
// queued one, and loses nothing.
func TestServerDrainBestSoFar(t *testing.T) {
	in := testInstance(t)
	s, c := startServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	running, err := c.Submit(ctx, slowSubmit(in))
	if err != nil {
		t.Fatal(err)
	}
	awaitLR(t, c, running.ID)
	queued, err := c.Submit(ctx, slowSubmit(in))
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatal(err)
	}

	final, err := c.Status(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Response == nil || final.Response.Degraded == nil {
		t.Fatalf("drained in-flight job: state %s, error %q; want done + Degraded", final.State, final.Error)
	}
	sol, err := c.Solution(ctx, running.ID, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("drained incumbent invalid: %v", err)
	}

	finalQ, err := c.Status(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finalQ.State != StateRejected {
		t.Fatalf("queued job after drain: state %s, want rejected", finalQ.State)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	accepted := metricValue(t, metrics, "tdmroutd_jobs_accepted_total")
	terminal := metricValue(t, metrics, `tdmroutd_jobs_total{outcome="done"}`) +
		metricValue(t, metrics, `tdmroutd_jobs_total{outcome="degraded"}`) +
		metricValue(t, metrics, `tdmroutd_jobs_total{outcome="canceled"}`) +
		metricValue(t, metrics, `tdmroutd_jobs_total{outcome="failed"}`) +
		metricValue(t, metrics, `tdmroutd_jobs_total{outcome="rejected"}`)
	if accepted != terminal {
		t.Errorf("after drain, accepted (%v) != terminal outcomes (%v): a job was lost silently", accepted, terminal)
	}
}

// TestServerSubmitValidation covers malformed submissions.
func TestServerSubmitValidation(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	var apiErr *APIError
	// Assign mode without a routing part.
	_, err := c.Submit(ctx, SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly})
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("assign without routing: err = %v, want 400", err)
	}
	// Unknown job id.
	if _, err := c.Status(ctx, "j9999999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown id: err = %v, want 404", err)
	}
	// Garbage instance body.
	resp, err := c.http().Post(c.BaseURL+"/v1/jobs", "text/plain", strings.NewReader("not an instance"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("garbage instance: status %d, want 400", resp.StatusCode)
	}
	// Solution of an unfinished job conflicts rather than blocks.
	st, err := c.Submit(ctx, slowSubmit(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solution(ctx, st.ID, FormatText); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Errorf("solution of running job: err = %v, want 409", err)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServerRetiredQueueParam pins the wire compatibility of the retired
// queue parameter: "auto", "heap" and "bucket" are accepted and ignored —
// every one solves to the bytes of a submission without the parameter —
// while an unknown name is still rejected with 400.
func TestServerRetiredQueueParam(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	solve := func(id string) []byte {
		t.Helper()
		if final, err := c.Wait(ctx, id); err != nil || final.State != StateDone {
			t.Fatalf("job %s: %v, %+v", id, err, final)
		}
		text, err := c.SolutionBytes(ctx, id, FormatText)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	st, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	want := solve(st.ID)

	var body bytes.Buffer
	if err := problem.WriteInstance(&body, in); err != nil {
		t.Fatal(err)
	}
	post := func(queue string) *http.Response {
		t.Helper()
		resp, err := c.http().Post(c.BaseURL+"/v1/jobs?queue="+queue, "text/plain", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, queue := range []string{"auto", "heap", "bucket"} {
		resp := post(queue)
		var st JobStatus
		err := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue=%s: status %d, decode %v", queue, resp.StatusCode, err)
		}
		if got := solve(st.ID); !bytes.Equal(got, want) {
			t.Fatalf("queue=%s: solution differs from the submission without the parameter", queue)
		}
	}
	resp := post("fibonacci")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("queue=fibonacci: status %d, want 400", resp.StatusCode)
	}
}
