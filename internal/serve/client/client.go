// Package client is the Go client for rocksimd (internal/serve): typed
// wrappers over the /v1 endpoints plus a Prometheus scrape helper.
// cmd/rockload drives its load through this package, and external
// tooling can use it to talk to a long-lived daemon instead of paying
// simulator start-up per query.
package client

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
	"time"

	"rocksim/internal/serve"
)

// Client talks to one rocksimd instance.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// BusyError is a 429 from the daemon's admission control: the queue is
// full and the caller should retry after the hinted delay.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy; retry after %v", e.RetryAfter)
}

// StatusError is any other non-2xx response, with the server's decoded
// error message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends a JSON body and returns the raw response body for the
// listed acceptable statuses; other statuses map to BusyError (429) or
// StatusError.
func (c *Client) post(path string, req any, okStatus ...int) (int, []byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http().Post(c.Base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	for _, s := range okStatus {
		if resp.StatusCode == s {
			return resp.StatusCode, body, nil
		}
	}
	return resp.StatusCode, body, responseError(resp, body)
}

func responseError(resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		return &BusyError{RetryAfter: retryAfter(resp.Header.Get("Retry-After"), time.Now)}
	}
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

// ProxyStatus is how a proxy in front of daemons answers for a failed
// request, inverting responseError: a 429 keeps its Retry-After, any
// other HTTP error its status and message, and a transport failure —
// no daemon answered — is a 502.
func ProxyStatus(err error) (status int, retryAfter time.Duration, msg []byte) {
	var busy *BusyError
	var se *StatusError
	switch {
	case errors.As(err, &busy):
		return http.StatusTooManyRequests, busy.RetryAfter, []byte(err.Error())
	case errors.As(err, &se):
		return se.Code, 0, []byte(se.Message)
	}
	return http.StatusBadGateway, 0, []byte(err.Error())
}

// retryAfter parses a Retry-After header per RFC 9110 §10.2.3: either a
// non-negative decimal number of seconds or an HTTP-date. "0" is a
// valid, meaningful hint — retry immediately, the queue drained — and
// must not be rounded up to the default; a date in the past likewise
// means now. Only an absent or unparsable header falls back to
// serve.DefaultRetryAfter. now is injected for testing the date arm.
func retryAfter(h string, now func() time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return serve.DefaultRetryAfter
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return serve.DefaultRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now()); d > 0 {
			return d
		}
		return 0
	}
	return serve.DefaultRetryAfter
}

// SleepCtx sleeps for d unless ctx ends first, reporting whether the
// full sleep elapsed. The 429 retry paths use it so a signal or a
// cancelled request interrupts a backoff immediately instead of after
// the server's full Retry-After hint.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run executes one cell and returns the report JSON exactly as the
// daemon produced it (byte-identical to `sstsim -json`).
func (c *Client) Run(req serve.RunRequest) ([]byte, error) {
	res, err := c.RunDetail(req)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// RunResult is a /v1/run response plus the client-side and
// server-reported timing that load tools care about.
type RunResult struct {
	// Body is the report JSON, byte-identical to Run's return.
	Body []byte
	// RequestID echoes the daemon's X-Request-ID header; pair it with
	// the daemon log or GET /v1/trace/{id}.
	RequestID string
	// TTFB is the client-measured time from sending the request until
	// response headers arrived (includes queue wait on the server).
	TTFB time.Duration
	// Compute is the server-reported X-Compute-Us: wall time the
	// daemon spent inside the runner (0 on a warm cache hit). The gap
	// TTFB-Compute is queueing, marshalling, and network.
	Compute time.Duration
}

// RunDetail executes one cell like Run but also surfaces the request
// id and timing split (client TTFB vs server-reported compute).
func (c *Client) RunDetail(req serve.RunRequest) (*RunResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := c.http().Post(c.Base+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	ttfb := time.Since(t0)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp, body)
	}
	res := &RunResult{Body: body, RequestID: resp.Header.Get("X-Request-ID"), TTFB: ttfb}
	if us, err := strconv.ParseInt(resp.Header.Get("X-Compute-Us"), 10, 64); err == nil {
		res.Compute = time.Duration(us) * time.Microsecond
	}
	return res, nil
}

// Cell computes one fleet-internal cell via POST /v1/cell: complete
// wire options in, a CellStats snapshot or classified cell error out.
// The context carries the caller's deadline and cancellation (a grid
// fan-out cancels its outstanding cells when one shard fails hard).
// A non-nil error here is a transport- or admission-level problem
// (connection refused, 429 BusyError, 503 draining); a deterministic
// simulation failure arrives as a nil error with resp.ErrClass set.
func (c *Client) Cell(ctx context.Context, req serve.CellRequest) (*serve.CellResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/cell", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp, body)
	}
	var out serve.CellResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("bad /v1/cell body: %v", err)
	}
	return &out, nil
}

// Grid regenerates experiments synchronously and returns the text
// report (byte-identical to sstbench output minus wall-clock lines).
func (c *Client) Grid(req serve.GridRequest) ([]byte, error) {
	req.Async = false
	_, body, err := c.post("/v1/grid", req, http.StatusOK)
	return body, err
}

// GridAsync submits a grid for background regeneration and returns the
// result id to poll with Result.
func (c *Client) GridAsync(req serve.GridRequest) (string, error) {
	req.Async = true
	_, body, err := c.post("/v1/grid", req, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var acc serve.AsyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		return "", fmt.Errorf("bad 202 body: %v", err)
	}
	return acc.ID, nil
}

// Result polls an async grid: done=false while it is still running,
// otherwise the finished report text.
func (c *Client) Result(id string) (done bool, body []byte, err error) {
	resp, err := c.http().Get(c.Base + "/v1/result/" + id)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return false, nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return true, body, nil
	case http.StatusAccepted:
		return false, nil, nil
	}
	return false, nil, responseError(resp, body)
}

// WaitResult polls Result until the job finishes or the deadline
// elapses.
func (c *Client) WaitResult(id string, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		done, body, err := c.Result(id)
		if err != nil {
			return nil, err
		}
		if done {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("result %s not ready within %v", id, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Healthz reports whether the daemon answers and is not draining.
func (c *Client) Healthz() error {
	resp, err := c.http().Get(c.Base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return responseError(resp, body)
	}
	return nil
}

// Health is the decoded /healthz body — the shard-level state a fleet
// router reads on every probe.
type Health struct {
	OK           bool   `json:"ok"`
	Draining     bool   `json:"draining"`
	ShardID      string `json:"shard_id"`
	QueueDepth   int    `json:"queue_depth"`
	QueueLimit   int    `json:"queue_limit"`
	InflightRuns int64  `json:"inflight_runs"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	PoolReused   uint64 `json:"pool_reused"`
	PoolBuilt    uint64 `json:"pool_built"`
}

// Health fetches and decodes /healthz. Unlike Healthz it succeeds on a
// 503 too — a draining shard still answers, and the body's Draining
// flag is exactly what a router's lame-duck handling needs.
func (c *Client) Health() (*Health, error) {
	resp, err := c.http().Get(c.Base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, responseError(resp, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("bad /healthz body: %v", err)
	}
	return &h, nil
}

// Metrics scrapes /metrics and returns the plain (unlabelled) samples
// as a name→value map, e.g. m["rocksim_serve_cache_hits"].
func (c *Client) Metrics() (map[string]float64, error) {
	resp, err := c.http().Get(c.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp, body)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m[fields[0]] = v
	}
	return m, nil
}
