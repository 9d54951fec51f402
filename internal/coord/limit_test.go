package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tdmroute"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// TestCoordinatorOversizedBodyIs413: submissions and deltas cut off by the
// coordinator's MaxBodyBytes get 413 naming the limit, not a 400 carrying
// whatever parse error the cut produced.
func TestCoordinatorOversizedBodyIs413(t *testing.T) {
	in := testInstance(t)
	var text bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := startFleet(t, 1, serve.Config{Workers: 1})
	wantTooLarge := func(what string, err error, limit int64) {
		t.Helper()
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge ||
			!strings.Contains(apiErr.Message, fmt.Sprint(limit)) {
			t.Fatalf("%s: %v, want 413 naming the %d-byte limit", what, err, limit)
		}
	}

	limit := int64(text.Len() / 2)
	_, c := startCoord(t, f, func(cfg *Config) { cfg.MaxBodyBytes = limit })
	for _, sub := range []struct {
		what string
		req  serve.SubmitRequest
	}{
		{"text", serve.SubmitRequest{Instance: in, Format: serve.FormatText}},
		{"json", serve.SubmitRequest{Instance: in, Format: serve.FormatJSON}},
		{"multipart", serve.SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly,
			Routing: make(tdmroute.Routing, len(in.Nets)), Format: serve.FormatText}},
	} {
		_, err := c.Submit(ctx, sub.req)
		wantTooLarge(sub.what, err, limit)
	}

	limit = int64(text.Len() + 1024)
	_, c = startCoord(t, f, func(cfg *Config) { cfg.MaxBodyBytes = limit })
	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	if base, err := c.Wait(ctx, st.ID); err != nil || base.State != serve.StateDone {
		t.Fatalf("retained base: %v, %+v", err, base)
	}
	resp, err := http.Post(c.BaseURL+"/v1/jobs/"+st.ID+"/delta", "application/json",
		strings.NewReader(strings.Repeat(" ", int(limit))+"{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("delta: status %d, want 413", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !strings.Contains(body.Error, fmt.Sprint(limit)) {
		t.Fatalf("delta: error %q (%v), want it to name the %d-byte limit", body.Error, err, limit)
	}
}
