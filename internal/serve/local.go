package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rocksim/internal/cpu"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// runner is the slice of *experiments.Runner the local backend
// consumes. It is an interface so the backpressure and drain tests can
// inject a blocking fake; production code always passes the real Runner.
type runner interface {
	RunCellCtx(ctx context.Context, k sim.Kind, spec *workload.Spec, opts sim.Options) (sim.Outcome, error)
	Run(id string, scale workload.Scale) (*experiments.Result, error)
	BaseOptions() sim.Options
	CacheStats() (hits, misses uint64)
	PoolStats() (reused, built uint64)
}

// local is rocksimd's backend: every cell and grid computed on this
// process's Runner, which also serves the fleet-internal /v1/cell.
type local struct {
	s   *Server
	run runner
	// inflight counts simulations executing right now (inside the
	// runner), as opposed to len(sem) which also counts queued work.
	inflight atomic.Int64
}

// New builds the rocksimd Server over the real experiments Runner.
func New(cfg Config, r *experiments.Runner) *Server {
	return newServer(cfg, r)
}

func newServer(cfg Config, r runner) *Server {
	l := &local{run: r}
	l.s = NewServer(cfg, daemon, l)
	l.s.mux.HandleFunc("POST /v1/cell", l.handleCell)
	return l.s
}

// buildCell resolves a request's kind, workload and scale.
func buildCell(kind, name, scale string) (sim.Kind, *workload.Spec, error) {
	k, err := sim.KindByName(kind)
	if err != nil {
		return 0, nil, err
	}
	sc, err := parseScale(scale)
	if err != nil {
		return 0, nil, err
	}
	spec, err := workload.Build(name, sc)
	return k, spec, err
}

// buildOptions applies a request's overrides to the runner's base
// options, exactly as sstsim maps its flags, and validates the result
// for kind k, so an out-of-bounds override is a 400 before the run
// reaches the runner.
func (l *local) buildOptions(k sim.Kind, ro *RunOptions) (sim.Options, error) {
	opts := l.run.BaseOptions()
	if ro == nil {
		return opts, opts.Validate(k)
	}
	if ro.DQ != nil {
		opts.SST.DQSize = *ro.DQ
	}
	if ro.Ckpt != nil {
		opts.SST.Checkpoints = *ro.Ckpt
	}
	if ro.SSB != nil {
		opts.SST.SSBSize = *ro.SSB
	}
	if ro.MemLat != nil && *ro.MemLat > 0 {
		opts.Hier.DRAM.Latency = *ro.MemLat
	}
	if ro.MaxCycles > 0 {
		opts.MaxCycles = ro.MaxCycles
	}
	if ro.Timeout != "" {
		d, err := time.ParseDuration(ro.Timeout)
		if err != nil {
			return opts, fmt.Errorf("bad timeout: %v", err)
		}
		opts.Timeout = d
	}
	if ro.Faults != "" {
		plan, err := faults.ParseSpec(ro.Faults)
		if err != nil {
			return opts, err
		}
		opts.Faults = plan
	}
	return opts, opts.Validate(k)
}

// compute runs one cell on the runner and stamps X-Compute-Us: the
// server-side cell time (queue wait + cache or compute), traced or not;
// rockload subtracts it from client TTFB to separate network/daemon
// overhead from simulation time.
func (l *local) compute(ctx context.Context, w http.ResponseWriter, k sim.Kind, spec *workload.Spec, opts sim.Options) (sim.Outcome, error) {
	l.inflight.Add(1)
	t0 := time.Now()
	out, err := l.run.RunCellCtx(ctx, k, spec, opts)
	w.Header().Set("X-Compute-Us", strconv.FormatInt(time.Since(t0).Microseconds(), 10))
	l.inflight.Add(-1)
	return out, err
}

func (l *local) Run(ctx context.Context, w http.ResponseWriter, req RunRequest) {
	kind, spec, err := buildCell(req.Kind, req.Workload, req.Scale)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := l.buildOptions(kind, req.Options)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Fresh per-cell registry, exactly like sstsim -json: the report's
	// metrics block comes from the run itself. On a cache hit the cached
	// outcome carries the registry of the original compute — same
	// deterministic contents, so hit and miss responses are identical.
	opts.Metrics = obs.NewRegistry()

	out, err := l.compute(ctx, w, kind, spec, opts)
	if err != nil {
		l.s.reg.Counter("serve/run_errors").Inc()
		l.s.log.Error("run failed", "id", RequestID(ctx), "kind", req.Kind,
			"workload", req.Workload, "err", err)
		httpError(w, ErrorStatus(err), err.Error())
		return
	}
	_, bs := obs.StartSpan(ctx, "assemble")
	var buf bytes.Buffer
	err = sim.NewReport(out).WriteJSON(&buf)
	bs.End()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	l.publishRunCPI(out)
	l.s.reg.Counter("serve/cells_served").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// publishRunCPI folds a served cell's cycle-accounting stack,
// transient-leakage counters and branch-predictor counters into the
// service metrics, so /metrics exposes where the daemon's simulated
// cycles went — and how much secret-tainted speculation and deferred-
// branch training it executed — across all requests (cached cells count
// once per serve, matching cells_served).
func (l *local) publishRunCPI(out sim.Outcome) {
	reg := l.s.reg
	if out.Core != nil {
		b := out.Core.Base()
		for bk := cpu.Bucket(0); bk < cpu.NumBuckets; bk++ {
			if b.CPI[bk] > 0 {
				reg.Counter("sim/cpi/" + bk.String()).Add(b.CPI[bk])
			}
		}
	}
	if out.Mach != nil && out.Mach.Hier != nil {
		hs := out.Mach.Hier.Stats
		reg.Counter("leak/tainted_accesses").Add(hs.TaintedSpecAccesses)
		reg.Counter("leak/squashed_spec_fills").Add(hs.SquashedSpecFills)
		reg.Counter("leak/oracle_checks").Add(hs.OracleChecks)
	}
	if out.Mach != nil && out.Mach.Pred != nil {
		ps := out.Mach.Pred.Stats
		reg.Counter("bpred/dir_lookups").Add(ps.DirLookups)
		reg.Counter("bpred/dir_mispredicts").Add(ps.DirMispredict)
		reg.Counter("bpred/btb_lookups").Add(ps.BTBLookups)
		reg.Counter("bpred/btb_misses").Add(ps.BTBMisses)
		reg.Counter("bpred/deferred_dir_trains").Add(ps.DeferredDirTrains)
		reg.Counter("bpred/deferred_target_trains").Add(ps.DeferredTargetTrains)
		reg.Counter("bpred/tage_provider_hits").Add(ps.TageProviderHits)
		reg.Counter("bpred/tage_allocs").Add(ps.TageAllocs)
	}
}

// handleCell computes one cell for a fleet router. Admission control,
// drain behavior, X-Compute-Us and the cancellation path are identical
// to /v1/run; what differs is the payload: complete options arrive on
// the wire (no base-option merge, so the router's per-cell overrides
// survive exactly) and a sim.CellStats snapshot goes back instead of
// the rendered report. A simulation error that would render as an
// ERR(reason) cell is returned as a 200 with the class and exact
// message in the body; the router rebuilds it with
// experiments.NewRemoteError so the assembled grid is byte-identical
// to a single-node run.
func (l *local) handleCell(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	l.s.reg.Counter("serve/cell_requests").Inc()
	release, ok := l.s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	var req CellRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	kind, spec, err := buildCell(req.Kind, req.Workload, req.Scale)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := req.Options.Options()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	out, err := l.compute(ctx, w, kind, spec, opts)
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// Deliberately 200: the failure is a property of the cell, not of
		// this shard, and must not trigger router failover (which would
		// recompute the same failure elsewhere).
		l.s.reg.Counter("serve/cell_errors").Inc()
		l.s.log.Warn("cell failed", "id", RequestID(ctx), "kind", req.Kind,
			"workload", req.Workload, "err", err)
		json.NewEncoder(w).Encode(CellResponse{
			ErrClass: experiments.ErrClass(err),
			ErrMsg:   err.Error(),
		})
		return
	}
	l.publishRunCPI(out)
	l.s.reg.Counter("serve/cells_served").Inc()
	json.NewEncoder(w).Encode(CellResponse{Cell: sim.SnapshotCell(out)})
}

// Grid regenerates the listed experiments in order on the runner.
func (l *local) Grid(_ context.Context, ids []string, scale workload.Scale) (int, time.Duration, []byte) {
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	var buf bytes.Buffer
	for _, id := range ids {
		res, err := l.run.Run(id, scale)
		if err != nil {
			l.s.reg.Counter("serve/grid_errors").Inc()
			l.s.log.Error("grid failed", "exp", id, "err", err)
			return ErrorStatus(err), 0, []byte(err.Error())
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	return http.StatusOK, 0, buf.Bytes()
}

// Health reports the daemon's queue, cache and pool state.
func (l *local) Health(body map[string]any) int {
	hits, misses := l.run.CacheStats()
	reused, built := l.run.PoolStats()
	body["shard_id"] = l.s.cfg.ShardID
	body["queue_depth"] = len(l.s.sem)
	body["queue_limit"] = l.s.cfg.QueueDepth
	body["inflight_runs"] = l.inflight.Load()
	body["cache_hits"], body["cache_misses"] = hits, misses
	body["pool_reused"], body["pool_built"] = reused, built
	return http.StatusOK
}

// Metrics exports the service counters with the runner's cache and
// pool totals and the queue and in-flight gauges.
func (l *local) Metrics(w io.Writer) error {
	reg := l.s.reg
	hits, misses := l.run.CacheStats()
	reused, built := l.run.PoolStats()
	reg.Counter("serve/cache_hits").Set(hits)
	reg.Counter("serve/cache_misses").Set(misses)
	reg.Counter("serve/pool_reused").Set(reused)
	reg.Counter("serve/pool_built").Set(built)
	reg.Gauge("serve/queue_depth").Set(int64(len(l.s.sem)))
	reg.Gauge("serve/inflight_runs").Set(l.inflight.Load())
	return reg.WriteProm(w)
}
