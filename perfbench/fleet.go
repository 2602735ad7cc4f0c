package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/gate"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
)

// numShards is the fleet size every service workload runs: rockgate in
// front of two rocksimd shards, all in this process on loopback.
const numShards = 2

// fleet is an in-process rockgate over numShards rocksimd shards, each
// shard a serve.Server over its own experiments.Runner bounded to one
// simulation at a time.
type fleet struct {
	gateURL string
	shards  []string // shard base URLs, in shard order
	gw      *gate.Gateway
	http    *http.Client // the benchmark's client: at most conns connections per host
	stop    []func()
}

// startFleet brings the fleet up and waits until the gateway answers
// /healthz.
func startFleet(conns int) (*fleet, error) {
	f := &fleet{http: client.NewHTTPClient(conns)}
	for i := 0; i < numShards; i++ {
		r := experiments.NewRunner()
		r.SetJobs(1)
		srv := serve.New(serve.Config{ShardID: fmt.Sprintf("s%d", i)}, r)
		url, stop, err := listen(srv, srv.StartDrain, srv.Wait)
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, url)
		f.stop = append(f.stop, stop)
	}
	gw, err := gate.New(gate.Config{Targets: f.shards})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	url, stop, err := listen(gw, gw.StartDrain, gw.Wait)
	if err != nil {
		gw.Close()
		f.close()
		return nil, err
	}
	f.gateURL = url
	// The gateway stops first: it is the shards' only client.
	f.stop = append([]func(){func() { stop(); gw.Close() }}, f.stop...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := f.http.Get(f.gateURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("gateway not healthy after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listen serves h on an ephemeral loopback port and returns its URL and
// a stop function that drains h, closes the listener and waits for
// admitted work to finish.
func listen(h http.Handler, drain, wait func()) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		drain()
		hs.Close()
		<-done
		wait()
	}, nil
}

// close stops the gateway and every shard and waits for them.
func (f *fleet) close() {
	for _, stop := range f.stop {
		stop()
	}
	f.stop = nil
	f.http.CloseIdleConnections()
}

// owner returns the shard the gateway routes a /v1/run request to.
func (f *fleet) owner(req serve.RunRequest) string {
	owners := f.gw.Fleet().Owners(client.RunKey(req), numShards)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// reply is one /v1/run response as the benchmark sees it.
type reply struct {
	Body      []byte
	ComputeUs int64
	TTFB      time.Duration
}

// post sends one /v1/run to base with the given extra headers. A 429 or
// 503 is errRefused; any other non-200 is an error naming the status.
func (f *fleet) post(ctx context.Context, base string, payload []byte, hdr map[string]string) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, err
	}
	ttfb := time.Since(t0)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, errRefused)
	default:
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	us, _ := strconv.ParseInt(resp.Header.Get("X-Compute-Us"), 10, 64)
	return &reply{Body: body, ComputeUs: us, TTFB: ttfb}, nil
}

// postGrid sends one synchronous /v1/grid to the gateway and returns
// the rendered body.
func (f *fleet) postGrid(payload []byte) ([]byte, error) {
	resp, err := f.http.Post(f.gateURL+"/v1/grid", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// counters reads each shard's run-cache and pool counters from its
// /metrics, in shard order.
func (f *fleet) counters() ([]shardCounters, error) {
	var out []shardCounters
	for _, s := range f.shards {
		m, err := (&client.Client{Base: s, HTTP: f.http}).Metrics()
		if err != nil {
			return nil, err
		}
		out = append(out, shardCounters{
			Hits:    m["rocksim_serve_cache_hits"],
			Misses:  m["rocksim_serve_cache_misses"],
			Reused:  m["rocksim_serve_pool_reused"],
			Built:   m["rocksim_serve_pool_built"],
			Refused: m["rocksim_serve_rejected_busy"] + m["rocksim_serve_rejected_draining"],
		})
	}
	return out, nil
}

// sum adds up per-shard counters.
func sum(per []shardCounters) (tot shardCounters) {
	for _, c := range per {
		tot = tot.add(c)
	}
	return tot
}

// shardCounters are the run-cache and pool counters of the fleet.
type shardCounters struct{ Hits, Misses, Reused, Built, Refused float64 }

func (a shardCounters) add(b shardCounters) shardCounters {
	return shardCounters{a.Hits + b.Hits, a.Misses + b.Misses, a.Reused + b.Reused, a.Built + b.Built, a.Refused + b.Refused}
}

func (a shardCounters) sub(b shardCounters) shardCounters {
	return shardCounters{a.Hits - b.Hits, a.Misses - b.Misses, a.Reused - b.Reused, a.Built - b.Built, a.Refused - b.Refused}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skew is max/mean of per-shard counts (1 = perfectly even).
func skew(counts []float64) float64 {
	var sum, max float64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	return ratio(max, sum/float64(len(counts)))
}

// traceSpans fetches a traced request's flat span list from a shard.
func (f *fleet) traceSpans(base, id string) ([]spanSnap, error) {
	resp, err := f.http.Get(base + "/v1/trace/" + id + "?format=spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var body struct {
		Spans []spanSnap `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Spans) == 0 {
		return nil, errors.New("trace " + id + ": no spans")
	}
	return body.Spans, nil
}

// spanSnap is the shard's flat span form (obs.SpanSnap on the wire).
type spanSnap struct {
	Name  string `json:"name"`
	DurUs int64  `json:"dur_us"`
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
