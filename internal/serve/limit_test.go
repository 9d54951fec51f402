package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"tdmroute"
	"tdmroute/internal/problem"
)

// wantTooLarge fails unless err is a 413 whose message names the limit.
func wantTooLarge(t *testing.T, what string, err error, limit int64) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge ||
		!strings.Contains(apiErr.Message, strconv.FormatInt(limit, 10)) {
		t.Fatalf("%s: %v, want 413 naming the %d-byte limit", what, err, limit)
	}
}

// TestServerOversizedBodyIs413 is the regression test for oversized
// submissions answered with 400 and whatever parse error the cut produced
// ("net 98 terminal 0: line 315: unexpected end of input" for a text body):
// every body format, and the delta endpoint, now gets 413 naming the limit.
func TestServerOversizedBodyIs413(t *testing.T) {
	in := testInstance(t)
	var text bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	limit := int64(text.Len() / 2)
	_, c := startServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	for _, sub := range []struct {
		what string
		req  SubmitRequest
	}{
		{"text", SubmitRequest{Instance: in, Format: FormatText}},
		{"json", SubmitRequest{Instance: in, Format: FormatJSON}},
		{"multipart", SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly,
			Routing: make(tdmroute.Routing, len(in.Nets)), Format: FormatText}},
	} {
		_, err := c.Submit(ctx, sub.req)
		wantTooLarge(t, sub.what, err, limit)
	}

	// The delta endpoint: a base that fits, then a delta body that does not.
	limit = int64(text.Len() + 1024)
	_, c = startServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	base := submitRetained(t, c, in)
	url := c.BaseURL + "/v1/jobs/" + base.ID + "/delta"
	resp, err := c.http().Post(url, "application/json", strings.NewReader(strings.Repeat(" ", int(limit))+"{}"))
	if err != nil {
		t.Fatal(err)
	}
	wantTooLarge(t, "delta", apiError(resp), limit)
	resp.Body.Close()
	// A malformed delta within the limit is still a 400.
	resp, err = c.http().Post(url, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed delta: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}
