package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetriesUntilSuccess pins the retry loop: 429 and 503 are
// retried (with backoff) until the server recovers, then the decoded
// response comes back.
func TestClientRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(CellResponse{Workload: "w", Fingerprint: "fp"})
		}
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 5, BaseBackoff: time.Millisecond, Seed: 1}
	resp, err := c.Cell(context.Background(), CellRequest{Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != "fp" {
		t.Fatalf("fingerprint %q, want fp", resp.Fingerprint)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestClientExhaustsRetries pins that a persistently overloaded server
// eventually surfaces the 429 as a StatusError.
func TestClientExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 1}
	_, err := c.Cell(context.Background(), CellRequest{Workload: "w"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want StatusError 429", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestClientTerminalStatus pins that non-retryable statuses fail fast.
func TestClientTerminalStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown workload"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 5, BaseBackoff: time.Millisecond, Seed: 1}
	_, err := c.Cell(context.Background(), CellRequest{Workload: "nope"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("terminal status retried: %d calls", got)
	}
}

// TestClientMetrics pins the single-GET path: a 200 returns the body
// verbatim, and any other status surfaces as a *StatusError without a
// retry.
func TestClientMetrics(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		if calls.Add(1) == 1 {
			_, _ = w.Write([]byte("simd_requests_total 3\n"))
			return
		}
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	got, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != "simd_requests_total 3\n" {
		t.Fatalf("Metrics = %q", got)
	}
	_, err = c.Metrics(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2", n)
	}
}

// TestBackoffHonorsRetryAfter pins the schedule arithmetic directly: a
// Retry-After hint overrides the exponential wait; without one the wait
// is the jittered exponential, capped at MaxBackoff.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	c := &Client{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	hinted := &retryableError{err: errors.New("429"), retryAfter: 7 * time.Second}
	if got := c.backoff(0, hinted); got != 7*time.Second {
		t.Fatalf("backoff with Retry-After = %v, want 7s", got)
	}
	for i := 0; i < 10; i++ {
		d := c.backoff(i, errors.New("transport"))
		lo := 50 * time.Millisecond << uint(i)
		hi := 2 * lo
		if hi > time.Second || hi <= 0 {
			hi = time.Second
			lo = hi / 2
		}
		if d < lo || d > hi {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestParseRetryAfter covers both RFC 9110 forms of Retry-After. The
// HTTP-date form is the regression half: the parser used to accept only
// delay-seconds, so a date-form hint silently became "no hint" and the
// client fell back to its computed backoff.
func TestParseRetryAfter(t *testing.T) {
	// Delay-seconds form: parsed, negatives zeroed, absurd hints clamped.
	cases := map[string]time.Duration{
		"":       0,
		"0":      0,
		"3":      3 * time.Second,
		" 3 ":    3 * time.Second,
		"-1":     0,
		"999999": maxRetryAfter,
		"soon":   0,
		// Large enough that secs*time.Second would overflow int64.
		"10000000000":  maxRetryAfter,
		"9300000000":   maxRetryAfter,
		"-10000000000": 0,
	}
	for in, want := range cases {
		if got := parseRetryAfter(in); got != want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}

	// HTTP-date form: a near-future date yields roughly the remaining
	// wait; past dates clamp to 0; far-future dates clamp to the ceiling;
	// garbage dates mean "no hint".
	httpDate := func(d time.Duration) string {
		return time.Now().Add(d).UTC().Format(http.TimeFormat)
	}
	if got := parseRetryAfter(httpDate(3 * time.Second)); got <= time.Second || got > 3*time.Second {
		t.Fatalf("parseRetryAfter(+3s date) = %v, want in (1s, 3s]", got)
	}
	if got := parseRetryAfter(httpDate(-time.Hour)); got != 0 {
		t.Fatalf("parseRetryAfter(past date) = %v, want 0", got)
	}
	if got := parseRetryAfter(httpDate(48 * time.Hour)); got != maxRetryAfter {
		t.Fatalf("parseRetryAfter(+48h date) = %v, want clamp to %v", got, maxRetryAfter)
	}
	if got := parseRetryAfter("Mon, 99 Foo 2026 99:99:99 GMT"); got != 0 {
		t.Fatalf("parseRetryAfter(garbage date) = %v, want 0", got)
	}
}

// TestBackoffCappedByDeadline is the regression test for backoff sleeps
// outliving the request deadline: with BaseBackoff far beyond the ctx
// budget, the wait before the final attempt used to burn the entire
// remaining time and surface context.DeadlineExceeded even though the
// server had already recovered. The capped sleep must leave room for the
// retry to land.
func TestBackoffCappedByDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(CellResponse{Workload: "w", Fingerprint: "fp"})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	// 10s of backoff against an 800ms budget: only the deadline cap can
	// let the second attempt run.
	c := &Client{BaseURL: ts.URL, MaxAttempts: 2, BaseBackoff: 10 * time.Second, Seed: 1}
	resp, err := c.Cell(ctx, CellRequest{Workload: "w"})
	if err != nil {
		t.Fatalf("retry within deadline failed: %v", err)
	}
	if resp.Fingerprint != "fp" {
		t.Fatalf("fingerprint %q, want fp", resp.Fingerprint)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

// TestClientContextCancelled pins that a cancelled context stops the
// retry loop immediately.
func TestClientContextCancelled(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{BaseURL: ts.URL, MaxAttempts: 5, BaseBackoff: time.Hour, Seed: 1}
	_, err := c.Cell(ctx, CellRequest{Workload: "w"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
