package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// startShard boots one in-process rocksimd over httptest, configured
// with the fleet's shared base options (bespoke experiments run against
// the shard's base, so it must match the gateway's — see
// docs/SERVICE.md).
func startShard(t *testing.T, id string, base sim.Options) *httptest.Server {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(2)
	r.SetBaseOptions(base)
	ts := httptest.NewServer(serve.New(serve.Config{ShardID: id}, r))
	t.Cleanup(ts.Close)
	return ts
}

func startFleet(t *testing.T, n int, base sim.Options) []string {
	t.Helper()
	targets := make([]string, n)
	for i := range targets {
		targets[i] = startShard(t, fmt.Sprintf("s%d", i), base).URL
	}
	return targets
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// gridRef renders the single-node reference: exactly the bytes one
// rocksimd's /v1/grid produces for ids at test scale under base.
func gridRef(t *testing.T, ids []string, base sim.Options) []byte {
	t.Helper()
	r := experiments.NewRunner()
	r.SetJobs(2)
	r.SetBaseOptions(base)
	var buf bytes.Buffer
	for _, id := range ids {
		res, err := r.Run(id, workload.ScaleTest)
		if err != nil {
			t.Fatalf("reference run %s: %v", id, err)
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

func gatewayGrid(t *testing.T, g *Gateway, ids []string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(g)
	defer ts.Close()
	body, err := json.Marshal(serve.GridRequest{Exps: ids, Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestGridByteIdentityFleet is the tentpole contract: a 3-shard fleet's
// assembled grid — cell-decomposed experiments fanned out by cache key,
// the bespoke CMP experiment routed whole — is byte-for-byte what a
// single daemon produces, sync and async.
func TestGridByteIdentityFleet(t *testing.T) {
	base := sim.DefaultOptions()
	targets := startFleet(t, 3, base)
	g := newGateway(t, Config{Targets: targets, PerShard: 4, BaseOptions: &base})

	ids := []string{"T1", "F3", "F9"} // table, cell fan-out, bespoke whole-exp
	want := gridRef(t, ids, base)

	resp, got := gatewayGrid(t, g, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %.300s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet grid differs from single-node bytes:\ngot  %d bytes\nwant %d bytes\ngot:  %.400q\nwant: %.400q",
			len(got), len(want), got, want)
	}

	// Async path: submit, poll, same bytes (cells now cached on shards).
	asyncIDs := []string{"T1", "F3"}
	asyncWant := gridRef(t, asyncIDs, base)
	ts := httptest.NewServer(g)
	defer ts.Close()
	body, _ := json.Marshal(serve.GridRequest{Exps: asyncIDs, Scale: "test", Async: true})
	ar, err := http.Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	accepted, _ := io.ReadAll(ar.Body)
	ar.Body.Close()
	if ar.StatusCode != http.StatusAccepted {
		t.Fatalf("async grid: status %d: %s", ar.StatusCode, accepted)
	}
	var acc serve.AsyncAccepted
	if err := json.Unmarshal(accepted, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rr, err := http.Get(ts.URL + acc.Result)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(rr.Body)
		rr.Body.Close()
		if rr.StatusCode == http.StatusOK {
			if !bytes.Equal(data, asyncWant) {
				t.Fatalf("async fleet grid differs from single-node bytes (%d vs %d)", len(data), len(asyncWant))
			}
			break
		}
		if rr.StatusCode != http.StatusAccepted {
			t.Fatalf("result poll: status %d: %s", rr.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("async grid never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGridByteIdentityFaultsAndErrCells: per-cell options — a fault
// plan and a cycle limit low enough to trip deterministic ERR cells —
// survive the wire, so the fleet renders the exact ERR table a single
// node does.
func TestGridByteIdentityFaultsAndErrCells(t *testing.T) {
	base := sim.DefaultOptions()
	plan, err := faults.Parse("seed=7;mem-jitter@0-5000:32;ckpt-deny@100-400")
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = plan
	base.MaxCycles = 3000 // low enough that long cells ERR(cycle-limit)

	targets := startFleet(t, 3, base)
	g := newGateway(t, Config{Targets: targets, PerShard: 4, BaseOptions: &base})

	ids := []string{"F1", "F3"}
	want := gridRef(t, ids, base)
	if !bytes.Contains(want, []byte("ERR(")) {
		t.Fatalf("reference produced no ERR cells; raise/lower MaxCycles to exercise the error path:\n%.400s", want)
	}
	resp, got := gatewayGrid(t, g, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %.300s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted fleet grid differs from single-node bytes:\ngot:  %.600q\nwant: %.600q", got, want)
	}
}

// TestShardDownAtStart: a target that is dead before the gateway boots
// is ejected by the constructor's health check; the grid assembles on
// the survivors, byte-identical.
func TestShardDownAtStart(t *testing.T) {
	base := sim.DefaultOptions()
	targets := startFleet(t, 2, base)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // port now refuses connections
	targets = append(targets, deadURL)

	g := newGateway(t, Config{Targets: targets, PerShard: 4, BaseOptions: &base})
	if up := g.Fleet().Monitor().UpCount(); up != 2 {
		t.Fatalf("up count %d after constructor check, want 2", up)
	}

	ids := []string{"T2", "F3"}
	want := gridRef(t, ids, base)
	resp, got := gatewayGrid(t, g, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %.300s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("grid with a dead shard differs from single-node bytes")
	}

	// The gateway's own health and metrics reflect the ejection.
	ts := httptest.NewServer(g)
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		OK       bool `json:"ok"`
		RingSize int  `json:"ring_size"`
		ShardsUp int  `json:"shards_up"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !h.OK || h.ShardsUp != 2 || h.RingSize != 2 {
		t.Errorf("healthz ok=%v shards_up=%d ring_size=%d, want true/2/2", h.OK, h.ShardsUp, h.RingSize)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{"gate_ring_size 2", "fleet_"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("gateway /metrics missing %q:\n%.600s", want, metrics)
		}
	}
}

// TestShardDiesMidGrid: a shard that starts answering, then drops every
// connection, is ejected mid-request; its cells re-home to ring
// successors and the assembled grid is still byte-identical.
func TestShardDiesMidGrid(t *testing.T) {
	base := sim.DefaultOptions()
	targets := startFleet(t, 2, base)

	// Third shard: healthy at probe time, but every cell request aborts
	// the connection — the shape of a daemon dying mid-computation.
	rn := experiments.NewRunner()
	rn.SetJobs(2)
	rn.SetBaseOptions(base)
	inner := serve.New(serve.Config{ShardID: "dying"}, rn)
	var cells atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cell" || r.URL.Path == "/v1/grid" {
			cells.Add(1)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)
	targets = append(targets, dying.URL)

	g := newGateway(t, Config{Targets: targets, PerShard: 4, BaseOptions: &base})
	if up := g.Fleet().Monitor().UpCount(); up != 3 {
		t.Fatalf("up count %d at start, want 3 (the dying shard probes healthy)", up)
	}

	ids := []string{"F1", "F3"} // enough distinct cells that the dying shard owns some
	want := gridRef(t, ids, base)
	resp, got := gatewayGrid(t, g, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %.300s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("grid with a mid-run shard death differs from single-node bytes")
	}
	if cells.Load() == 0 {
		t.Fatal("the dying shard was never asked for a cell; the test exercised nothing")
	}
	ejected := false
	for _, s := range g.Fleet().Monitor().Snapshot() {
		if s.Target == dying.URL {
			ejected = !s.Up && s.Ejections >= 1
		}
	}
	if !ejected {
		t.Error("dying shard was not ejected after dropping connections")
	}
}

// fakeShard is a minimal shard: healthy /healthz, scripted /v1/cell.
func fakeShard(t *testing.T, cell http.HandlerFunc) *httptest.Server {
	t.Helper()
	return fakeShardConns(t, cell, nil)
}

// fakeShardConns is fakeShard with a ConnState hook, installed before
// the server starts: setting it on a running server races its accept
// loop.
func fakeShardConns(t *testing.T, cell http.HandlerFunc, connState func(net.Conn, http.ConnState)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	})
	mux.HandleFunc("POST /v1/cell", cell)
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = connState
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestAllShardsSaturated: when every shard answers 429, the gateway
// reports 429 with the LARGEST Retry-After any shard hinted — promptly,
// never hanging or queueing.
func TestAllShardsSaturated(t *testing.T) {
	targets := make([]string, 3)
	for i := range targets {
		secs := i + 1 // Retry-After 1s, 2s, 3s
		targets[i] = fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
			serve.WriteResult(w, http.StatusTooManyRequests, time.Duration(secs)*time.Second, []byte("queue full"))
		}).URL
	}
	g := newGateway(t, Config{
		Targets:      targets,
		PerShard:     4,
		BusyAttempts: 1, // no waiting: each owner gets one shot per round
		BusyWait:     time.Millisecond,
	})

	start := time.Now()
	resp, body := gatewayGrid(t, g, []string{"F3"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %.300s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want the fleet maximum \"3\"", ra)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("saturated grid took %v; the gateway must fail fast, not hang", elapsed)
	}
}

// TestFanOutConnectionBound is the transport regression: a grid with
// many cells must reuse the per-shard connection pool, not open one
// connection per cell.
func TestFanOutConnectionBound(t *testing.T) {
	const perShard = 2
	conns := make([]*atomic.Int64, 3)
	served := make([]*atomic.Int64, 3)
	targets := make([]string, 3)
	for i := range targets {
		conns[i] = new(atomic.Int64)
		served[i] = new(atomic.Int64)
		n, c := served[i], conns[i]
		targets[i] = fakeShardConns(t, func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(serve.CellResponse{ErrClass: experiments.ErrClassRunFailed, ErrMsg: "synthetic"})
		}, func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				c.Add(1)
			}
		}).URL
	}
	g := newGateway(t, Config{Targets: targets, PerShard: perShard})

	resp, body := gatewayGrid(t, g, []string{"F1", "F3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d: %.300s", resp.StatusCode, body)
	}
	totalCells := int64(0)
	for i := range targets {
		totalCells += served[i].Load()
		if got := conns[i].Load(); got > perShard+1 { // +1 for the constructor's health probe racing the pool
			t.Errorf("shard %d: %d connections opened for %d cells, want <= %d (pooled)",
				i, got, served[i].Load(), perShard+1)
		}
	}
	if totalCells <= perShard*3 {
		t.Fatalf("only %d cells served across the fleet; too few to regress connection pooling", totalCells)
	}
}
