package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"frontsim/internal/xrand"
)

// Client is a retrying client for the simd service. Retryable responses —
// 429 (queue full), 503 (draining or restarting) and transport errors —
// are retried with jittered exponential backoff; a Retry-After header
// overrides the computed backoff. Terminal statuses (4xx other than 429,
// 504) surface immediately as *StatusError.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8091".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request (<=0: 6).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (<=0: 100ms). Attempt i
	// waits BaseBackoff·2^i, half of it jittered, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps a single wait (<=0: 5s).
	MaxBackoff time.Duration
	// Seed makes the jitter sequence reproducible (0: a fixed default).
	Seed uint64

	mu  sync.Mutex
	rng *xrand.Rand
}

// StatusError is a non-retryable (or retries-exhausted) HTTP failure.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Body)
}

// Cell requests one simulation cell.
func (c *Client) Cell(ctx context.Context, req CellRequest) (CellResponse, error) {
	var resp CellResponse
	err := c.do(ctx, "/v1/cell", req, &resp)
	return resp, err
}

// Suite requests a grid of cells.
func (c *Client) Suite(ctx context.Context, req SuiteRequest) (SuiteResponse, error) {
	var resp SuiteResponse
	err := c.do(ctx, "/v1/suite", req, &resp)
	return resp, err
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.get(ctx, "/metrics")
	return string(b), err
}

// get performs a single (non-retried) GET of path.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	res, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, &StatusError{Status: res.StatusCode, Body: string(b)}
	}
	return b, nil
}

// do POSTs body to path, retrying per the client's policy, and decodes
// the success payload into out.
func (c *Client) do(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 6
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := c.backoff(i-1, last)
			// Never sleep past the request's own deadline: a backoff longer
			// than the remaining budget would burn it entirely and turn a
			// still-winnable final attempt into a guaranteed
			// context.DeadlineExceeded. Cap the wait below the remainder,
			// keeping a slice of the budget for the attempt itself.
			if dl, ok := ctx.Deadline(); ok {
				if remain := time.Until(dl); d > remain {
					d = remain - remain/8
					if d < 0 {
						d = 0
					}
				}
			}
			if err := c.sleep(ctx, d); err != nil {
				return err
			}
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		res, err := hc.Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		b, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			last = err
			continue
		}
		switch {
		case res.StatusCode == http.StatusOK:
			return json.Unmarshal(b, out)
		case res.StatusCode == http.StatusTooManyRequests,
			res.StatusCode == http.StatusServiceUnavailable:
			last = &retryableError{
				err:        &StatusError{Status: res.StatusCode, Body: errText(b)},
				retryAfter: parseRetryAfter(res.Header.Get("Retry-After")),
			}
		default:
			return &StatusError{Status: res.StatusCode, Body: errText(b)}
		}
	}
	var re *retryableError
	if errors.As(last, &re) {
		return re.err
	}
	return fmt.Errorf("serve: %d attempts failed, last: %w", attempts, last)
}

// retryableError remembers the server's Retry-After hint across the loop.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// backoff computes the wait before retry attempt i (0-based): the
// exponential schedule with the upper half jittered, unless the failed
// response carried a Retry-After, which wins.
func (c *Client) backoff(i int, last error) time.Duration {
	var re *retryableError
	if errors.As(last, &re) && re.retryAfter > 0 {
		return re.retryAfter
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	d := base << uint(i)
	if d <= 0 || d > maxB {
		d = maxB
	}
	half := int(d / 2)
	c.mu.Lock()
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = 0x5e17e_c11e47
		}
		c.rng = xrand.New(seed)
	}
	j := c.rng.Intn(half + 1)
	c.mu.Unlock()
	return d/2 + time.Duration(j)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// maxRetryAfter clamps absurd server hints: a Retry-After pointing
// minutes or hours out (typo'd seconds, skewed clock behind an HTTP
// date) must not park the client longer than its own backoff ceiling
// plausibly would.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter reads both RFC 9110 forms of Retry-After — delay
// seconds and HTTP-date — clamping negative (past dates, negative
// seconds) to 0 and absurdly large hints to maxRetryAfter. 0 means "no
// usable hint": the caller falls back to computed backoff.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		// Clamp before multiplying: from 9,223,372,037 s on, secs*time.Second
		// overflows time.Duration and wraps past either clamp below.
		switch {
		case secs < 0:
			return 0
		case secs > int(maxRetryAfter/time.Second):
			return maxRetryAfter
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		d = time.Until(at)
	} else {
		return 0
	}
	switch {
	case d < 0:
		return 0
	case d > maxRetryAfter:
		return maxRetryAfter
	}
	return d
}

// errText extracts the message from a JSON error body, falling back to
// the raw bytes.
func errText(b []byte) string {
	var eb errorBody
	if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return string(b)
}
