package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksim/internal/gate"
	"rocksim/internal/serve"
)

// tier is one of the two HTTP tiers under a blocking fake computation.
type tier struct {
	name    string
	srv     *serve.Server // what StartDrain and Wait act on
	url     string
	started <-chan struct{} // one receive per computation begun
	release func()          // lets every computation finish
}

// tiers boots both tiers with the same admission config: rocksimd over
// a blocking fake runner, and rockgate in front of one blocking fake
// shard (such a rocksimd). Their shared admission, drain, async-job and
// validation code must behave alike. The tests' grids ask for F9, which
// the gateway routes to the shard whole, so each gateway grid blocks in
// exactly one shard computation as a daemon grid does in its runner.
func tiers(t *testing.T, cfg serve.Config) []tier {
	t.Helper()
	daemon, started, release := serve.NewBlocking(cfg)
	shard, shardStarted, shardRelease := serve.NewBlocking(serve.Config{})
	shardTS := httptest.NewServer(shard)
	t.Cleanup(shardTS.Close)
	g, err := gate.New(gate.Config{Targets: []string{shardTS.URL}, QueueDepth: cfg.QueueDepth, RetryAfter: cfg.RetryAfter})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	out := []tier{
		{name: "rocksimd", srv: daemon, started: started, release: release},
		{name: "rockgate", srv: g.Server, started: shardStarted, release: shardRelease},
	}
	for i, h := range []http.Handler{daemon, g} {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		out[i].url = ts.URL
	}
	// Runs before the servers close (cleanups are LIFO), so a failed
	// test never leaves a handler blocked in the fake.
	t.Cleanup(func() { release(); shardRelease() })
	return out
}

// TestBackpressure fills the admission queue and proves the next
// request is refused with 429 and a Retry-After hint rather than
// queueing without bound — and that the admitted requests complete.
func TestBackpressure(t *testing.T) {
	for _, tr := range tiers(t, serve.Config{QueueDepth: 2, RetryAfter: 3 * time.Second}) {
		t.Run(tr.name, func(t *testing.T) {
			var wg sync.WaitGroup
			codes := make([]int, 2)
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, _ := serve.PostJSON(t, tr.url, "/v1/grid", `{"exps":["F9"]}`)
					codes[i] = resp.StatusCode
				}(i)
			}
			// Both admitted requests are inside the fake before we overflow.
			<-tr.started
			<-tr.started

			resp, body := serve.PostJSON(t, tr.url, "/v1/grid", `{"exps":["F9"]}`)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overflow request: status %d, want 429 (body %s)", resp.StatusCode, body)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Errorf("Retry-After %q, want \"3\"", ra)
			}

			tr.release()
			wg.Wait()
			for i, c := range codes {
				if c != http.StatusOK {
					t.Errorf("admitted request %d: status %d, want 200", i, c)
				}
			}
		})
	}
}

// TestDrain: StartDrain refuses new work with 503 while the in-flight
// async grid runs to completion, Wait blocks until it has, and the
// result remains retrievable afterwards.
func TestDrain(t *testing.T) {
	for _, tr := range tiers(t, serve.Config{}) {
		t.Run(tr.name, func(t *testing.T) {
			resp, body := serve.PostJSON(t, tr.url, "/v1/grid", `{"exps":["F9"],"async":true}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("async grid: status %d: %s", resp.StatusCode, body)
			}
			var acc serve.AsyncAccepted
			if err := json.Unmarshal(body, &acc); err != nil {
				t.Fatal(err)
			}
			<-tr.started

			tr.srv.StartDrain()
			resp, _ = serve.PostJSON(t, tr.url, "/v1/grid", `{"exps":["F9"]}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("grid while draining: status %d, want 503", resp.StatusCode)
			}
			resp, _ = serve.PostJSON(t, tr.url, "/v1/run", `{"kind":"sst","workload":"chase"}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("run while draining: status %d, want 503", resp.StatusCode)
			}
			resp, _ = serve.Get(t, tr.url, "/healthz")
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
			}
			// The queued job is still running, not dropped.
			resp, _ = serve.Get(t, tr.url, acc.Result)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("poll while draining: status %d, want 202", resp.StatusCode)
			}

			tr.release()
			done := make(chan struct{})
			go func() { tr.srv.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Wait did not return after the in-flight job finished")
			}
			resp, got := serve.Get(t, tr.url, acc.Result)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result after drain: status %d", resp.StatusCode)
			}
			if !strings.Contains(string(got), "---- F9: fake ----") {
				t.Errorf("drained result body %q missing the fake grid", got)
			}
		})
	}
}

// TestGridValidation: a grid request naming an unknown experiment or a
// bad scale, or whose body is malformed or has an unknown field, is a
// 400 on both tiers before any computation starts.
func TestGridValidation(t *testing.T) {
	for _, tr := range tiers(t, serve.Config{}) {
		t.Run(tr.name, func(t *testing.T) {
			for _, tc := range []struct{ name, body string }{
				{"unknown experiment", `{"exps":["F99"]}`},
				{"bad scale", `{"exps":["T1"],"scale":"huge"}`},
				{"malformed body", `{"exps":["T1"]`},
				{"unknown field", `{"exps":["T1"],"slacle":"test"}`},
			} {
				resp, body := serve.PostJSON(t, tr.url, "/v1/grid", tc.body)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
				}
			}
			select {
			case <-tr.started:
				t.Error("an invalid grid reached the computation")
			default:
			}
		})
	}
}
