// Package gate is the fleet backend of the simulation service's one
// HTTP tier: cmd/rockgate is a serve.Server whose backend routes each
// request to N rocksimd shards, answering with the bytes one node would.
//
// Routing is cache-affine: every request's cells hash onto the shard
// ring by the same content-addressed key the shards use for their run
// caches (experiments.CellKey), so a popular cell lands on one shard
// and is computed once per fleet. /v1/run proxies whole to the owner;
// /v1/grid decomposes — experiments whose simulations all flow through
// the cell cache fan out cell by cell (bounded per-shard concurrency,
// reassembled here in presentation order), the bespoke multi-core
// experiments route to a shard whole.
//
// The gateway holds no durable state: membership is health-driven
// (startup check, background re-probe, request-path ejection), a dead
// shard's keys re-home to ring successors mid-grid, and saturation is
// surfaced honestly — when every shard answers 429, the gateway
// returns 429 with the largest Retry-After it saw rather than queueing
// or hanging.
package gate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/fleet"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// Defaults for Config zero values.
const (
	// DefaultBusyAttempts bounds how many times one cell waits out a
	// shard's 429 before the gateway reports saturation upstream.
	DefaultBusyAttempts = 3
	// DefaultBusyWait caps the per-attempt sleep on a shard 429; the
	// shard's Retry-After is honored up to this.
	DefaultBusyWait = 2 * time.Second
)

// Config parameterizes a Gateway.
type Config struct {
	// Targets are the shard base URLs, e.g. "http://127.0.0.1:8321".
	Targets []string
	// PerShard bounds concurrent gateway requests per shard (default
	// client.DefaultMaxPerHost). Keep it <= each shard's queue depth or
	// fan-out will trip admission control under its own load.
	PerShard int
	// Jobs bounds a grid's assembly workers (cells in flight across the
	// whole fleet). 0 means PerShard * len(Targets).
	Jobs int
	// QueueDepth is the gateway's own admission bound (0 =
	// serve.DefaultQueueDepth).
	QueueDepth int
	// RetryAfter is the gateway's own 429 hint (0 =
	// serve.DefaultRetryAfter).
	RetryAfter time.Duration
	// BusyAttempts and BusyWait govern per-cell shard-429 handling.
	BusyAttempts int
	BusyWait     time.Duration
	// BaseOptions are the options grid experiments start from, exactly
	// like a single daemon's -faults/-timeout flags. nil means
	// sim.DefaultOptions.
	BaseOptions *sim.Options
	// HTTP overrides the shared shard transport (tests); nil builds a
	// tuned one sized to PerShard.
	HTTP *http.Client
	// Logger receives request/ejection log lines; nil discards them.
	Logger *slog.Logger
}

// Gateway is a serve.Server over the fleet: the embedded Server serves
// HTTP, drains and waits exactly as a single rocksimd does, and the
// Gateway is its serve.Backend.
type Gateway struct {
	*serve.Server
	cfg Config
	fl  *client.Fleet
}

// tier keeps the gateway's own counter prefix, request ids and 429 text.
var tier = serve.Tier{Metrics: "gate", RequestID: "g", Queue: "gateway queue"}

// New builds a Gateway over cfg.Targets and runs one synchronous
// health check, so shards that are down at start are ejected before the
// first request routes. Call Fleet().Monitor().Start to begin
// background re-probing and Close on shutdown.
func New(cfg Config) (*Gateway, error) {
	fl, err := client.NewFleet(cfg.Targets, client.FleetConfig{PerShard: cfg.PerShard, HTTP: cfg.HTTP})
	if err != nil {
		return nil, err
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = fl.PerShard() * len(cfg.Targets)
	}
	if cfg.BusyAttempts <= 0 {
		cfg.BusyAttempts = DefaultBusyAttempts
	}
	if cfg.BusyWait <= 0 {
		cfg.BusyWait = DefaultBusyWait
	}
	g := &Gateway{cfg: cfg, fl: fl}
	g.Server = serve.NewServer(serve.Config{QueueDepth: cfg.QueueDepth, RetryAfter: cfg.RetryAfter, Logger: cfg.Logger}, tier, g)
	fl.Monitor().Check()
	return g, nil
}

// Fleet exposes the shard client: health snapshots, probe control.
func (g *Gateway) Fleet() *client.Fleet { return g.fl }

// Close stops probing and releases idle shard connections.
func (g *Gateway) Close() { g.fl.Close() }

// Run proxies one cell to its owning shard (ring successors on
// transport failure), passing back the shard's body and compute header
// so the response is byte-identical to asking that shard — or any
// single daemon — directly.
func (g *Gateway) Run(ctx context.Context, w http.ResponseWriter, req serve.RunRequest) {
	res, target, err := g.fl.Run(ctx, req)
	if err != nil {
		status, retry, msg := client.ProxyStatus(err)
		switch {
		case status == http.StatusTooManyRequests:
			g.Registry().Counter("gate/upstream_busy").Inc()
		case !errors.As(err, new(*client.StatusError)):
			g.Registry().Counter("gate/upstream_down").Inc()
		}
		serve.WriteResult(w, status, retry, msg)
		return
	}
	w.Header().Set("X-Shard", target)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(res.Compute.Microseconds(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Body)
}

// Grid assembles the listed experiments in presentation order.
// Cell-decomposable experiments run through a per-request
// experiments.Runner whose compute backend fans cells out to their
// owning shards — the Runner's cache and singleflight deduplicate
// repeated cells within the request, the worker pool bounds fleet-wide
// fan-out, and presentation-order assembly keeps the bytes identical
// to a single node. Bespoke multi-core experiments are routed to a
// shard whole. The gateway holds no cross-request cache: the shards'
// caches are the fleet's state.
func (g *Gateway) Grid(ctx context.Context, ids []string, scale workload.Scale) (int, time.Duration, []byte) {
	st := &fanout{}
	r := experiments.NewRunner()
	r.SetJobs(g.cfg.Jobs)
	if g.cfg.BaseOptions != nil {
		r.SetBaseOptions(*g.cfg.BaseOptions)
	}
	r.SetComputeBackend(g.cellBackend(ctx, scale, st))
	var buf bytes.Buffer
	for _, id := range ids {
		if !experiments.RemoteSafe(id) {
			part, err := g.remoteGrid(ctx, id, scale)
			if err != nil {
				g.Registry().Counter("gate/grid_errors").Inc()
				return client.ProxyStatus(err)
			}
			buf.Write(part)
			continue
		}
		res, err := r.Run(id, scale)
		if status, retry, msg := st.verdict(); status != 0 {
			return status, retry, msg
		}
		if err != nil {
			g.Registry().Counter("gate/grid_errors").Inc()
			return serve.ErrorStatus(err), 0, []byte(err.Error())
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	return http.StatusOK, 0, buf.Bytes()
}

// remoteGrid routes one whole experiment to a shard: the bespoke
// multi-core experiments (CMP chips, SMT pairs, HTM, the leakage
// oracle) run simulations outside the cell seam, so the shard computes
// the entire table and its body — Result.Fprint plus the separator
// line — is spliced into the assembly verbatim. Placement hashes the
// experiment id, so repeats hit the same shard's grid cache cells.
func (g *Gateway) remoteGrid(ctx context.Context, id string, scale workload.Scale) ([]byte, error) {
	key := "exp|" + id + "|" + serve.ScaleName(scale)
	req := serve.GridRequest{Exps: []string{id}, Scale: serve.ScaleName(scale)}
	lastErr := errors.New("no healthy shards")
	for round := 0; round <= len(g.cfg.Targets); round++ {
		owners := g.fl.Owners(key, len(g.cfg.Targets))
		if len(owners) == 0 {
			break
		}
		for _, target := range owners {
			release, err := g.fl.Acquire(ctx, target)
			if err != nil {
				return nil, err
			}
			body, err := g.fl.Client(target).Grid(req)
			release()
			if err == nil {
				g.Registry().Counter("gate/exps_routed").Inc()
				return body, nil
			}
			if !g.shardUnavailable(target, err) {
				return nil, err
			}
			lastErr = err
		}
	}
	return nil, fmt.Errorf("experiment %s: all shards failed: %w", id, lastErr)
}

// cellBackend builds the per-request compute backend: each cache miss
// on the assembly Runner becomes a /v1/cell call to the cell's owning
// shard, with ring-successor failover on transport errors, lame-duck
// ejection on 503, and bounded Retry-After waits on 429. A cell's
// deterministic failure comes back as a RemoteError, which the drivers
// render as the same ERR cell a local run would produce. Gateway-level
// failures (no shards left, fleet saturated) are recorded in st — the
// grid handler turns them into 502/429 instead of a wrong table.
func (g *Gateway) cellBackend(ctx context.Context, scale workload.Scale, st *fanout) experiments.ComputeBackend {
	return func(_ context.Context, k sim.Kind, spec *workload.Spec, opts sim.Options) (sim.Outcome, error) {
		key := experiments.CellKey(k, spec, opts)
		req := serve.CellRequest{
			Kind:     k.String(),
			Workload: spec.Name,
			Scale:    serve.ScaleName(scale),
			Options:  serve.WireFromOptions(opts),
		}
		var maxBusy time.Duration
		sawBusy := false
		// Bounded outer loop: each round re-reads membership, and a round
		// that ejects shards shrinks the next one. len(targets)+1 rounds
		// guarantee termination even as probes re-admit flapping shards.
		for round := 0; round <= len(g.cfg.Targets); round++ {
			owners := g.fl.Owners(key, len(g.cfg.Targets))
			if len(owners) == 0 {
				break
			}
			for _, target := range owners {
				for attempt := 0; ; attempt++ {
					release, err := g.fl.Acquire(ctx, target)
					if err != nil {
						return st.fail(err)
					}
					resp, err := g.fl.Client(target).Cell(ctx, req)
					release()
					if err == nil {
						if resp.ErrClass != "" {
							return sim.Outcome{}, experiments.NewRemoteError(resp.ErrClass, resp.ErrMsg)
						}
						if resp.Cell == nil {
							return st.fail(fmt.Errorf("shard %s returned neither cell nor error", target))
						}
						g.Registry().Counter("gate/cells_remote").Inc()
						out, err := resp.Cell.AsOutcome()
						if err != nil {
							return st.fail(err)
						}
						return out, nil
					}
					var busy *client.BusyError
					if errors.As(err, &busy) {
						g.Registry().Counter("gate/retries_busy").Inc()
						sawBusy = true
						maxBusy = max(maxBusy, busy.RetryAfter)
						if attempt+1 >= g.cfg.BusyAttempts {
							break // give this owner up; try a successor's spare capacity
						}
						if !client.SleepCtx(ctx, min(busy.RetryAfter, g.cfg.BusyWait)) {
							return st.fail(ctx.Err())
						}
						continue
					}
					if !g.shardUnavailable(target, err) {
						// The shard answered with a real HTTP error (bad
						// request, fingerprint mismatch): a gateway bug, not
						// a shard outage. Fail the grid loudly.
						return st.fail(err)
					}
					break // ejected; next owner
				}
			}
		}
		if sawBusy {
			return st.fail(&client.BusyError{RetryAfter: maxBusy})
		}
		return st.fail(fmt.Errorf("no healthy shards for cell %s/%s", k, spec.Name))
	}
}

// shardUnavailable classifies an upstream error and ejects the shard
// when it means "unavailable": transport failures and drain refusals
// re-home the shard's keys; HTTP-level answers do not.
func (g *Gateway) shardUnavailable(target string, err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		if se.Code != http.StatusServiceUnavailable {
			return false
		}
		err = fleet.ErrDraining
	} else if errors.As(err, new(*client.BusyError)) {
		return false
	}
	if g.fl.Monitor().MarkDown(target, err) {
		g.Registry().Counter("gate/ejections").Inc()
		g.Logger().Warn("shard unavailable; ejected", "shard", target, "err", err)
	}
	return true
}

// fanout accumulates gateway-level failures across a grid's cells.
// Saturation and hard failures must abort the request — the drivers
// would otherwise render them as ERR cells, which a single node would
// never show for a healthy simulation.
type fanout struct {
	mu  sync.Mutex
	err error // a hard failure, else saturation as a *client.BusyError
}

// fail records a cell's gateway-level failure and returns it as the
// cell's error. Hard failures beat saturation (a dead fleet is not
// "retry later"), and saturation keeps the largest Retry-After any
// shard hinted.
func (f *fanout) fail(err error) (sim.Outcome, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	was, wasBusy := f.err.(*client.BusyError)
	busy, isBusy := err.(*client.BusyError)
	if f.err == nil || wasBusy && (!isBusy || busy.RetryAfter > was.RetryAfter) {
		f.err = err
	}
	return sim.Outcome{}, err
}

// verdict maps the recorded failure onto the grid's answer: 502, or 429
// for saturation; status 0 when there is none.
func (f *fanout) verdict() (int, time.Duration, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if busy, ok := f.err.(*client.BusyError); ok {
		return http.StatusTooManyRequests, busy.RetryAfter, fmt.Appendf(nil, "fleet saturated; retry after %v", busy.RetryAfter)
	}
	if f.err != nil {
		return http.StatusBadGateway, 0, []byte(f.err.Error())
	}
	return 0, 0, nil
}

// Health adds every shard's state to the gateway's /healthz; with no
// shard up the gateway is not ok and answers 502.
func (g *Gateway) Health(body map[string]any) int {
	up := g.fl.Monitor().UpCount()
	body["ring_size"], body["shards_up"], body["shards"] = g.fl.Monitor().Ring().Size(), up, g.fl.Monitor().Snapshot()
	if up == 0 {
		body["ok"] = false
		return http.StatusBadGateway
	}
	return http.StatusOK
}

// Metrics serves the gateway's own counters plus the fleet-aggregated
// view: per-shard up/ejection gauges and the summed shard samples
// (cache traffic, pool reuse, cells served) under a fleet_ prefix, so
// one scrape shows the whole tier.
func (g *Gateway) Metrics(w io.Writer) error {
	g.Registry().Gauge("gate/ring_size").Set(int64(g.fl.Monitor().Ring().Size()))
	for i, s := range g.fl.Monitor().Snapshot() {
		up := int64(0)
		if s.Up {
			up = 1
		}
		g.Registry().Gauge(fmt.Sprintf("gate/shard%d/up", i)).Set(up)
		g.Registry().Counter(fmt.Sprintf("gate/shard%d/ejections", i)).Set(s.Ejections)
	}
	if err := g.Registry().WriteProm(w); err != nil {
		return err
	}
	agg := g.fl.MetricsAll()
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# Fleet-aggregated samples (summed across reachable shards).\n")
	for _, name := range names {
		fmt.Fprintf(w, "fleet_%s %g\n", name, agg[name])
	}
	return nil
}
