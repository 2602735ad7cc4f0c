package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// postJSON sends body to path and returns the response.
func postJSON(t *testing.T, base, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, data
}

func get(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, data
}

// TestRunByteIdentity proves the core service contract: a /v1/run
// response is byte-for-byte what `sstsim -json` prints for the same
// cell, and a repeat request (a cache hit) returns the same bytes.
func TestRunByteIdentity(t *testing.T) {
	r := experiments.NewRunner()
	r.SetJobs(2)
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := `{"kind":"sst","workload":"chase","scale":"test"}`
	resp, got := postJSON(t, ts.URL, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("run: Content-Type %q", ct)
	}

	// Reference: exactly what cmd/sstsim does under -json.
	spec, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	out, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sim.NewReport(out).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("run response differs from sstsim -json bytes:\ngot  %d bytes\nwant %d bytes\ngot:  %.200s\nwant: %.200s",
			len(got), want.Len(), got, want.Bytes())
	}

	_, again := postJSON(t, ts.URL, "/v1/run", req)
	if !bytes.Equal(again, got) {
		t.Fatal("second (cached) run response differs from the first")
	}
	hits, misses := r.CacheStats()
	if misses != 1 || hits != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestRunTimeoutPropagation: a request-level wall-clock timeout reaches
// the simulation watchdog and surfaces as 504.
func TestRunTimeoutPropagation(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	req := `{"kind":"sst","workload":"chase","scale":"test","options":{"timeout":"1ns"}}`
	resp, body := postJSON(t, ts.URL, "/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "deadline") {
		t.Fatalf("error body %s does not name the deadline", body)
	}
}

// TestRunValidation covers the 4xx surface.
func TestRunValidation(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"bad kind", `{"kind":"vliw","workload":"chase"}`},
		{"bad workload", `{"kind":"sst","workload":"nope"}`},
		{"bad scale", `{"kind":"sst","workload":"chase","scale":"huge"}`},
		{"unknown field", `{"kind":"sst","workload":"chase","slacle":"test"}`},
		{"bad faults", `{"kind":"sst","workload":"chase","options":{"faults":"wat@@"}}`},
		{"bad timeout", `{"kind":"sst","workload":"chase","options":{"timeout":"soon"}}`},
	} {
		resp, body := postJSON(t, ts.URL, "/v1/run", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
	}

	resp, _ := get(t, ts.URL, "/v1/run")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL, "/v1/grid", `{"exps":["F99"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL, "/v1/result/g999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", resp.StatusCode)
	}
}

// TestRunRejectsUnboundedConfig: core-size overrides outside
// core.Config.Validate's bounds are a 400, not an allocation — a
// checkpoint count of 1<<26 once ran the process out of memory and a
// negative SSB wedged the run — and the daemon keeps answering.
func TestRunRejectsUnboundedConfig(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"huge ckpt", `{"kind":"sst","workload":"chase","scale":"test","options":{"ckpt":67108864}}`},
		{"negative ssb", `{"kind":"sst","workload":"chase","scale":"test","options":{"ssb":-1}}`},
		{"negative dq", `{"kind":"sst-ea","workload":"chase","scale":"test","options":{"dq":-1}}`},
		// sst-big doubles the base sizes, so it is checked after doubling.
		{"sst-big doubled dq", `{"kind":"sst-big","workload":"chase","scale":"test","options":{"dq":40000}}`},
	} {
		resp, body := postJSON(t, ts.URL, "/v1/run", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		if resp, body := get(t, ts.URL, "/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("after %s: healthz status %d body %s", tc.name, resp.StatusCode, body)
		}
	}
}

// gridRef regenerates ids on a fresh serial Runner, rendering exactly
// what `sstbench -j 1` prints minus its wall-clock lines.
func gridRef(t *testing.T, ids []string, scale workload.Scale) []byte {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(1)
	var want bytes.Buffer
	for _, id := range ids {
		res, err := r.Run(id, scale)
		if err != nil {
			t.Fatalf("reference %s: %v", id, err)
		}
		res.Fprint(&want)
		fmt.Fprintln(&want)
	}
	return want.Bytes()
}

// TestGridByteIdentity: a /v1/grid response matches the serial sstbench
// reference byte for byte, concurrency and caching notwithstanding.
func TestGridByteIdentity(t *testing.T) {
	ids := []string{"T1", "F3"}
	r := experiments.NewRunner()
	r.SetJobs(4)
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, got := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1","F3"],"scale":"test"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %s", resp.StatusCode, got)
	}
	want := gridRef(t, ids, workload.ScaleTest)
	if !bytes.Equal(got, want) {
		t.Fatalf("grid response differs from serial sstbench reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGridAsync: the async path accepts immediately, reports running,
// and serves the same bytes as the sync path once done.
func TestGridAsync(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL, "/v1/grid", `{"exps":["T1"],"scale":"test","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async grid: status %d: %s", resp.StatusCode, body)
	}
	var acc AsyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		t.Fatalf("async grid: bad 202 body %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	var got []byte
	for {
		resp, b := get(t, ts.URL, acc.Result)
		if resp.StatusCode == http.StatusOK {
			got = b
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("async grid did not finish in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := gridRef(t, []string{"T1"}, workload.ScaleTest)
	if !bytes.Equal(got, want) {
		t.Fatalf("async grid result differs from reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// fakeRunner blocks every computation until release is closed, so the
// backpressure and drain tests control exactly how many requests are in
// flight. started receives one signal per computation begun.
type fakeRunner struct {
	started chan struct{}
	release chan struct{}
	cellErr error
}

func (f *fakeRunner) RunCellCtx(ctx context.Context, k sim.Kind, spec *workload.Spec, opts sim.Options) (sim.Outcome, error) {
	f.started <- struct{}{}
	<-f.release
	return sim.Outcome{}, f.cellErr
}

func (f *fakeRunner) Run(id string, scale workload.Scale) (*experiments.Result, error) {
	f.started <- struct{}{}
	<-f.release
	return &experiments.Result{ID: id, Title: "fake"}, nil
}

func (f *fakeRunner) BaseOptions() sim.Options     { return sim.DefaultOptions() }
func (f *fakeRunner) CacheStats() (uint64, uint64) { return 0, 0 }
func (f *fakeRunner) PoolStats() (uint64, uint64)  { return 0, 0 }

// TestRunDeadlineMapsTo504 uses the runner seam to pin the error
// mapping without a wall-clock dependency.
func TestRunDeadlineMapsTo504(t *testing.T) {
	fake := &fakeRunner{
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
		cellErr: fmt.Errorf("cell: %w", cpu.ErrDeadline),
	}
	close(fake.release)
	ts := httptest.NewServer(newServer(Config{}, fake))
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL, "/v1/run", `{"kind":"sst","workload":"chase"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestMetricsAndHealth: /metrics exposes service counters and cache
// stats in Prometheus text form; /healthz is green while serving.
func TestMetricsAndHealth(t *testing.T) {
	r := experiments.NewRunner()
	ts := httptest.NewServer(New(Config{}, r))
	defer ts.Close()

	resp, body := get(t, ts.URL, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	postJSON(t, ts.URL, "/v1/run", `{"kind":"inorder","workload":"chase","scale":"test"}`)
	resp, body = get(t, ts.URL, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"rocksim_serve_run_requests 1",
		"rocksim_serve_cells_served 1",
		"rocksim_serve_cache_misses 1",
		// Transient-leakage counters fold in per served cell (zero for a
		// secret-free workload, but always present once a cell is served).
		"rocksim_leak_tainted_accesses ",
		"rocksim_leak_squashed_spec_fills ",
		"rocksim_leak_oracle_checks ",
		// Predictor counters fold in per served cell the same way; a
		// branchy workload always looks up directions.
		"rocksim_bpred_dir_lookups ",
		"rocksim_bpred_dir_mispredicts ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
