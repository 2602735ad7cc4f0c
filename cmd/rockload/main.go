// Command rockload load-tests a rocksimd daemon (see docs/SERVICE.md):
// it fires a deterministic mix of /v1/run cells from N concurrent
// clients, honours 429 backpressure by retrying after the server's
// hint, and reports request throughput, latency percentiles and the
// daemon's cache-hit rate as BENCH_serve.json.
//
// Usage:
//
//	rockload -self -n 200 -c 8 -o BENCH_serve.json    # in-process daemon
//	rockload -addr http://127.0.0.1:8321 -n 500 -c 16
//	rockload -check BENCH_serve.json                  # bench-guard mode
//	rockload -addr http://host:8321 -healthz          # readiness probe
//	rockload -addr http://host:8321 -scale test -grid-exps T1,F3 -grid-out grid.txt
//
// Fleet modes (see docs/SERVICE.md):
//
//	rockload -targets http://h:8321,http://h:8322 -n 500 -c 16
//	    drive an external shard fleet directly: requests route by the
//	    same consistent-hash ring a rockgate would use, cache-hit rate
//	    is aggregated across shards.
//	rockload -fleet-bench -fleet-sizes 1,2,4 -shard-jobs 1 -o BENCH_serve.json
//	    scaling benchmark: for each fleet size N, start N in-process
//	    daemons (a fixed -shard-jobs worker pool each, so compute per
//	    shard is constant), push a cold mix of distinct cells through
//	    the ring, then hammer one popular cell from every client; the
//	    per-size throughput, percentiles, fleet-wide cache-hit rate and
//	    the popular cell's fleet-wide miss count (1 = computed once per
//	    fleet) land under the "fleet" key of BENCH_serve.json.
//
// In -check mode a fresh self-hosted measurement is compared against
// the recorded baseline: under 80% of the baseline's requests/s, or a
// p95 latency above 120% of baseline (+5ms slack), fails the guard.
// A baseline with a "fleet" key re-runs the fleet benchmark and guards
// each size's throughput and the top-size scaling factor the same way.
// A missing baseline file is a skip, not a failure — the numbers are
// machine-specific; regenerate with `make bench`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/serve"
	"rocksim/internal/serve/client"
	"rocksim/internal/sim"
)

// report is the recorded measurement (the BENCH_serve.json schema).
// The ttfb/compute/retry-wait keys were added later; old baselines
// without them still unmarshal, and the guard never reads them.
type report struct {
	N           int     `json:"n"`
	Concurrency int     `json:"concurrency"`
	Scale       string  `json:"scale"`
	WallMS      float64 `json:"wall_ms"`
	RPS         float64 `json:"rps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	// TTFB percentiles: client-side time to response headers, per
	// successful final attempt (excludes 429 retry sleeps).
	TTFBP50MS float64 `json:"ttfb_p50_ms"`
	TTFBP95MS float64 `json:"ttfb_p95_ms"`
	// Compute percentiles: the daemon's X-Compute-Us per request —
	// near zero on cache hits, so the spread shows the hit/miss split.
	ComputeP50MS float64 `json:"compute_p50_ms"`
	ComputeP95MS float64 `json:"compute_p95_ms"`
	// RetryWaitTotalMS sums every 429 Retry-After sleep across the run.
	RetryWaitTotalMS float64 `json:"retry_wait_total_ms"`
	Rejected429      int64   `json:"rejected_429"`
	Errors           int64   `json:"errors"`
	CacheHitPct      float64 `json:"cache_hit_pct"`
}

// fleetReport is the "fleet" key of BENCH_serve.json: one entry per
// fleet size, plus the headline scaling factor (largest size's cell
// throughput over size 1's).
type fleetReport struct {
	ShardJobs int         `json:"shard_jobs"`
	Sizes     []fleetSize `json:"sizes"`
	ScalingX  float64     `json:"scaling_x"`
}

// fleetSize is one fleet size's measurement. The cold phase pushes
// distinct cells (every request a cache miss somewhere in the fleet);
// the popular phase repeats one cell from every client and records how
// many fleet-wide misses it cost — 1 means ring placement did its job
// and the fleet computed it exactly once.
type fleetSize struct {
	Shards       int     `json:"shards"`
	N            int     `json:"n"`
	Concurrency  int     `json:"concurrency"`
	WallMS       float64 `json:"wall_ms"`
	CellRPS      float64 `json:"cell_rps"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	Rejected429  int64   `json:"rejected_429"`
	Errors       int64   `json:"errors"`
	FleetHitPct  float64 `json:"fleet_hit_pct"`
	PopularReqs  int     `json:"popular_reqs"`
	PopularMiss  float64 `json:"popular_misses"`
	DistinctMiss float64 `json:"distinct_misses"`
}

// loadWorkloads is the fixed cell mix: every core kind crossed with
// these workloads, cycled deterministically by request index, so a run
// of n requests always asks for the same n cells in the same order.
var loadWorkloads = []string{"chase", "oltp"}

func main() {
	addr := flag.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8321 (empty: use -self)")
	self := flag.Bool("self", false, "serve an in-process daemon on a loopback port and load that")
	n := flag.Int("n", 200, "total requests")
	c := flag.Int("c", 8, "concurrent clients")
	scaleFlag := flag.String("scale", "test", "workload scale for the cell mix: test | full")
	out := flag.String("o", "", "write the measurement as JSON to this file ('-' = stdout)")
	check := flag.String("check", "", "compare a fresh -self measurement against this baseline JSON; missing file = skip")
	healthz := flag.Bool("healthz", false, "probe /healthz and exit")
	gridExps := flag.String("grid-exps", "", "fetch /v1/grid for these comma-separated experiments instead of load-testing")
	gridOut := flag.String("grid-out", "-", "write the fetched grid to this file ('-' = stdout)")
	targets := flag.String("targets", "", "comma-separated shard base URLs: load a fleet directly, routing by the shared ring")
	fleetBench := flag.Bool("fleet-bench", false, "run the in-process fleet scaling benchmark (see -fleet-sizes)")
	fleetSizes := flag.String("fleet-sizes", "1,2,4", "fleet sizes measured by -fleet-bench")
	shardJobs := flag.Int("shard-jobs", 1, "simulation workers per in-process shard in -fleet-bench (fixed, so scaling comes from shard count)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: workers stop taking cells
	// and any in-progress 429 backoff sleep aborts immediately, so ^C
	// during a long Retry-After never hangs the process. A second signal
	// kills the process the default way (NotifyContext unregisters).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *check != "" {
		runCheck(ctx, *check, *n, *c, *scaleFlag, *shardJobs)
		return
	}
	if *fleetBench {
		runFleetBench(ctx, parseSizes(*fleetSizes), *shardJobs, *n, *c, *scaleFlag, *out)
		return
	}
	if *targets != "" {
		runFleetLoad(ctx, splitList(*targets), *n, *c, *scaleFlag, *healthz)
		return
	}

	base := *addr
	var shutdown func()
	if base == "" || *self {
		var err error
		base, shutdown, err = startSelf(*c)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}
	cl := &client.Client{Base: base}

	switch {
	case *healthz:
		if err := cl.Healthz(); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case *gridExps != "":
		grid, err := cl.Grid(serve.GridRequest{Exps: strings.Split(*gridExps, ","), Scale: *scaleFlag})
		if err != nil {
			fatal(err)
		}
		writeOut(*gridOut, grid)
	default:
		rep, err := measure(ctx, cl, *n, *c, *scaleFlag)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rockload: %d reqs x %d clients: %.1f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d x 429, %d errors, cache hit %.1f%%\n",
			rep.N, rep.Concurrency, rep.RPS, rep.P50MS, rep.P95MS, rep.P99MS, rep.Rejected429, rep.Errors, rep.CacheHitPct)
		fmt.Printf("rockload: ttfb p50 %.1fms p95 %.1fms, server compute p50 %.1fms p95 %.1fms, 429 retry wait %.0fms total\n",
			rep.TTFBP50MS, rep.TTFBP95MS, rep.ComputeP50MS, rep.ComputeP95MS, rep.RetryWaitTotalMS)
		if rep.Errors > 0 {
			fatal(fmt.Errorf("%d requests failed", rep.Errors))
		}
		if *out != "" {
			enc, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fatal(err)
			}
			writeOut(*out, append(enc, '\n'))
		}
	}
}

// startSelf serves an in-process daemon on an ephemeral loopback port.
func startSelf(clients int) (base string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	r := experiments.NewRunner()
	r.SetJobs(runtime.GOMAXPROCS(0))
	// Queue deeper than the client count so the self-load measures
	// throughput, not artificial rejections.
	srv := serve.New(serve.Config{QueueDepth: 4 * clients}, r)
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		srv.StartDrain()
		hs.Close()
		srv.Wait()
	}, nil
}

// cellFor returns request i's cell in the deterministic mix.
func cellFor(i int, scale string) serve.RunRequest {
	kind := sim.Kinds[i%len(sim.Kinds)]
	wl := loadWorkloads[(i/len(sim.Kinds))%len(loadWorkloads)]
	return serve.RunRequest{Kind: kind.String(), Workload: wl, Scale: scale}
}

// drive pushes reqs through c concurrent clients against do, honouring
// 429 backpressure, and collects the raw measurement. Cancelling ctx
// (SIGINT) stops the feed and aborts any in-progress backoff sleep;
// drive then returns the context error instead of a half-measured
// report. Both the single-daemon and fleet paths run through this loop,
// so their numbers are directly comparable.
func drive(ctx context.Context, do func(serve.RunRequest) (*client.RunResult, error), reqs []serve.RunRequest, c int) (report, error) {
	n := len(reqs)
	var rejected, errCount atomic.Int64
	var retryWait atomic.Int64 // summed 429 Retry-After sleeps, in ns
	latencies := make([]time.Duration, n)
	ttfbs := make([]time.Duration, n)
	computes := make([]time.Duration, n)
	oks := make([]bool, n)
	work := make(chan int)
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := reqs[i]
				t0 := time.Now()
				ok := false
				for attempt := 0; attempt < 50; attempt++ {
					res, err := do(req)
					var busy *client.BusyError
					if errors.As(err, &busy) {
						rejected.Add(1)
						retryWait.Add(int64(busy.RetryAfter))
						if !client.SleepCtx(ctx, busy.RetryAfter) {
							break
						}
						continue
					}
					if err == nil && json.Valid(res.Body) {
						ok = true
						ttfbs[i] = res.TTFB
						computes[i] = res.Compute
					}
					break
				}
				latencies[i] = time.Since(t0)
				oks[i] = ok
				if !ok {
					errCount.Add(1)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return report{}, fmt.Errorf("interrupted: %w", err)
	}
	wall := time.Since(start)

	var okLat, okTTFB, okCompute []float64
	for i, ok := range oks {
		if ok {
			okLat = append(okLat, float64(latencies[i])/float64(time.Millisecond))
			okTTFB = append(okTTFB, float64(ttfbs[i])/float64(time.Millisecond))
			okCompute = append(okCompute, float64(computes[i])/float64(time.Millisecond))
		}
	}
	sort.Float64s(okLat)
	sort.Float64s(okTTFB)
	sort.Float64s(okCompute)
	return report{
		N:                n,
		Concurrency:      c,
		WallMS:           float64(wall) / float64(time.Millisecond),
		RPS:              float64(n) / wall.Seconds(),
		P50MS:            quantile(okLat, 0.50),
		P95MS:            quantile(okLat, 0.95),
		P99MS:            quantile(okLat, 0.99),
		TTFBP50MS:        quantile(okTTFB, 0.50),
		TTFBP95MS:        quantile(okTTFB, 0.95),
		ComputeP50MS:     quantile(okCompute, 0.50),
		ComputeP95MS:     quantile(okCompute, 0.95),
		RetryWaitTotalMS: float64(retryWait.Load()) / float64(time.Millisecond),
		Rejected429:      rejected.Load(),
		Errors:           errCount.Load(),
	}, nil
}

// measure drives the standard single-daemon mix and folds in the
// daemon's cache-hit rate.
func measure(ctx context.Context, cl *client.Client, n, c int, scale string) (report, error) {
	reqs := make([]serve.RunRequest, n)
	for i := range reqs {
		reqs[i] = cellFor(i, scale)
	}
	rep, err := drive(ctx, cl.RunDetail, reqs, c)
	if err != nil {
		return rep, err
	}
	rep.Scale = scale
	m, err := cl.Metrics()
	if err != nil {
		return rep, fmt.Errorf("scrape metrics: %w", err)
	}
	hits, misses := m["rocksim_serve_cache_hits"], m["rocksim_serve_cache_misses"]
	if hits+misses > 0 {
		rep.CacheHitPct = 100 * hits / (hits + misses)
	}
	return rep, nil
}

// distinctCellFor returns request i's cell in the cold fleet mix: the
// standard kind/workload cycle plus a unique DQ-size override, so every
// request is a distinct cache cell and the run measures simulation
// throughput, not cache bandwidth.
func distinctCellFor(i int, scale string) serve.RunRequest {
	req := cellFor(i, scale)
	dq := 8 + i
	req.Options = &serve.RunOptions{DQ: &dq}
	return req
}

// runFleetLoad drives an external shard fleet directly: requests route
// by the shared consistent-hash ring (the same placement a rockgate
// would compute) and the cache-hit rate aggregates across shards.
func runFleetLoad(ctx context.Context, targets []string, n, c int, scale string, healthz bool) {
	fl, err := client.NewFleet(targets, client.FleetConfig{PerShard: c})
	if err != nil {
		fatal(err)
	}
	defer fl.Close()
	fl.Monitor().Check()
	if healthz {
		all := fl.HealthAll()
		bad := 0
		for _, t := range fl.Targets() {
			h := all[t]
			switch {
			case h == nil:
				fmt.Printf("%s: unreachable\n", t)
				bad++
			case h.Draining:
				fmt.Printf("%s: draining (shard %q)\n", t, h.ShardID)
				bad++
			default:
				fmt.Printf("%s: ok (shard %q, queue %d/%d)\n", t, h.ShardID, h.QueueDepth, h.QueueLimit)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	do := func(r serve.RunRequest) (*client.RunResult, error) {
		res, _, err := fl.Run(ctx, r)
		return res, err
	}
	reqs := make([]serve.RunRequest, n)
	for i := range reqs {
		reqs[i] = cellFor(i, scale)
	}
	rep, err := drive(ctx, do, reqs, c)
	if err != nil {
		fatal(err)
	}
	m := fl.MetricsAll()
	hits, misses := m["rocksim_serve_cache_hits"], m["rocksim_serve_cache_misses"]
	if hits+misses > 0 {
		rep.CacheHitPct = 100 * hits / (hits + misses)
	}
	fmt.Printf("rockload: fleet of %d: %d reqs x %d clients: %.1f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d x 429, %d errors, fleet cache hit %.1f%%\n",
		len(targets), rep.N, rep.Concurrency, rep.RPS, rep.P50MS, rep.P95MS, rep.P99MS, rep.Rejected429, rep.Errors, rep.CacheHitPct)
	if rep.Errors > 0 {
		fatal(fmt.Errorf("%d requests failed", rep.Errors))
	}
}

// startFleetSelf serves n in-process daemons, each with its own Runner
// (cache and pool) bounded to shardJobs simulation workers.
func startFleetSelf(shards, shardJobs, clients int) (targets []string, shutdown func(), err error) {
	var shut []func()
	shutdown = func() {
		for _, f := range shut {
			f()
		}
	}
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		r := experiments.NewRunner()
		r.SetJobs(shardJobs)
		srv := serve.New(serve.Config{ShardID: fmt.Sprintf("s%d", i), QueueDepth: 4 * clients}, r)
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		targets = append(targets, "http://"+ln.Addr().String())
		shut = append(shut, func() {
			srv.StartDrain()
			hs.Close()
			srv.Wait()
		})
	}
	return targets, shutdown, nil
}

// fleetMeasureSize measures one fleet size: a cold phase of n distinct
// cells routed over the ring, then a popular phase repeating one cell
// from every client. Fleet-wide cache counters before and after the
// popular phase prove where it was computed: popular_misses == 1 means
// once, on its owning shard.
func fleetMeasureSize(ctx context.Context, shards, shardJobs, n, c int, scale string) (fleetSize, error) {
	targets, shutdown, err := startFleetSelf(shards, shardJobs, c)
	if err != nil {
		return fleetSize{}, err
	}
	defer shutdown()
	fl, err := client.NewFleet(targets, client.FleetConfig{PerShard: c})
	if err != nil {
		return fleetSize{}, err
	}
	defer fl.Close()
	do := func(r serve.RunRequest) (*client.RunResult, error) {
		res, _, err := fl.Run(ctx, r)
		return res, err
	}

	reqs := make([]serve.RunRequest, n)
	for i := range reqs {
		reqs[i] = distinctCellFor(i, scale)
	}
	cold, err := drive(ctx, do, reqs, c)
	if err != nil {
		return fleetSize{}, err
	}
	m1 := fl.MetricsAll()

	p := n / 4
	if p < c {
		p = c
	}
	preqs := make([]serve.RunRequest, p)
	for i := range preqs {
		preqs[i] = cellFor(0, scale)
	}
	pop, err := drive(ctx, do, preqs, c)
	if err != nil {
		return fleetSize{}, err
	}
	m2 := fl.MetricsAll()

	hits, misses := m2["rocksim_serve_cache_hits"], m2["rocksim_serve_cache_misses"]
	fs := fleetSize{
		Shards:       shards,
		N:            n,
		Concurrency:  c,
		WallMS:       cold.WallMS,
		CellRPS:      cold.RPS,
		P50MS:        cold.P50MS,
		P95MS:        cold.P95MS,
		P99MS:        cold.P99MS,
		Rejected429:  cold.Rejected429 + pop.Rejected429,
		Errors:       cold.Errors + pop.Errors,
		PopularReqs:  p,
		PopularMiss:  m2["rocksim_serve_cache_misses"] - m1["rocksim_serve_cache_misses"],
		DistinctMiss: m1["rocksim_serve_cache_misses"],
	}
	if hits+misses > 0 {
		fs.FleetHitPct = 100 * hits / (hits + misses)
	}
	return fs, nil
}

// runFleetBench measures every requested fleet size and records the
// results under the "fleet" key of the -o file, preserving the file's
// single-daemon fields.
func runFleetBench(ctx context.Context, sizes []int, shardJobs, n, c int, scale, out string) {
	fr := fleetReport{ShardJobs: shardJobs}
	for _, size := range sizes {
		fs, err := fleetMeasureSize(ctx, size, shardJobs, n, c, scale)
		if err != nil {
			fatal(err)
		}
		fr.Sizes = append(fr.Sizes, fs)
		fmt.Printf("rockload: fleet N=%d (%d jobs/shard): %.1f cells/s, p50 %.1fms p95 %.1fms p99 %.1fms, fleet hit %.1f%%, popular cell: %d reqs -> %.0f misses\n",
			fs.Shards, shardJobs, fs.CellRPS, fs.P50MS, fs.P95MS, fs.P99MS, fs.FleetHitPct, fs.PopularReqs, fs.PopularMiss)
		if fs.Errors > 0 {
			fatal(fmt.Errorf("fleet N=%d: %d requests failed", fs.Shards, fs.Errors))
		}
	}
	fr.ScalingX = scalingX(fr.Sizes)
	if fr.ScalingX > 0 {
		fmt.Printf("rockload: fleet scaling: %.2fx from N=1 to N=%d\n", fr.ScalingX, maxShards(fr.Sizes))
	}
	if out != "" {
		mergeFleet(out, fr)
	}
}

// scalingX is the headline factor: the largest fleet's cold-cache cell
// throughput over the single-shard fleet's. 0 when size 1 was not
// measured.
func scalingX(sizes []fleetSize) float64 {
	var base, best float64
	for _, s := range sizes {
		if s.Shards == 1 {
			base = s.CellRPS
		}
		if s.CellRPS > 0 && s.Shards == maxShards(sizes) {
			best = s.CellRPS
		}
	}
	if base <= 0 {
		return 0
	}
	return best / base
}

func maxShards(sizes []fleetSize) int {
	m := 0
	for _, s := range sizes {
		if s.Shards > m {
			m = s.Shards
		}
	}
	return m
}

// mergeFleet writes fr under the "fleet" key of path, preserving any
// existing single-daemon fields in the file.
func mergeFleet(path string, fr fleetReport) {
	doc := map[string]any{}
	if path != "-" {
		if old, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(old, &doc); err != nil {
				fatal(fmt.Errorf("bad existing %s: %v", path, err))
			}
		}
	}
	doc["fleet"] = fr
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	writeOut(path, append(enc, '\n'))
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad fleet size %q", part))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatal(errors.New("no fleet sizes"))
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// quantile reads q from an ascending sample (nearest-rank on the
// client-side latency list; the daemon's own histograms use stats.Hist).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// runCheck is bench-guard mode: self-measure and compare to baseline.
// A baseline carrying a "fleet" key additionally re-runs the fleet
// benchmark at the recorded sizes and guards each size's throughput
// plus the top-size scaling factor.
func runCheck(ctx context.Context, path string, n, c int, scale string, shardJobs int) {
	base, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Printf("rockload: no baseline at %s; skipping guard (run `make bench` to record one)\n", path)
		return
	}
	if err != nil {
		fatal(err)
	}
	var want struct {
		report
		Fleet *fleetReport `json:"fleet"`
	}
	if err := json.Unmarshal(base, &want); err != nil {
		fatal(fmt.Errorf("bad baseline %s: %v", path, err))
	}

	failed := false
	if want.N > 0 {
		sn, sc, sscale := want.N, want.Concurrency, want.Scale
		baseURL, shutdown, err := startSelf(sc)
		if err != nil {
			fatal(err)
		}
		got, err := measure(ctx, &client.Client{Base: baseURL}, sn, sc, sscale)
		shutdown()
		if err != nil {
			fatal(err)
		}
		if got.RPS < 0.8*want.RPS {
			fmt.Printf("FAIL req/s %.1f < 80%% of baseline %.1f\n", got.RPS, want.RPS)
			failed = true
		}
		if got.P95MS > 1.2*want.P95MS+5 {
			fmt.Printf("FAIL p95 %.1fms > 120%% of baseline %.1fms (+5ms)\n", got.P95MS, want.P95MS)
			failed = true
		}
		if got.Errors > 0 {
			fmt.Printf("FAIL %d requests errored\n", got.Errors)
			failed = true
		}
		if !failed {
			fmt.Printf("ok   serve %.1f req/s (baseline %.1f), p95 %.1fms (baseline %.1fms), cache hit %.1f%%\n",
				got.RPS, want.RPS, got.P95MS, want.P95MS, got.CacheHitPct)
		}
	}

	if want.Fleet != nil && len(want.Fleet.Sizes) > 0 {
		sj := want.Fleet.ShardJobs
		if sj < 1 {
			sj = shardJobs
		}
		gotFleet := fleetReport{ShardJobs: sj}
		for _, ws := range want.Fleet.Sizes {
			gs, err := fleetMeasureSize(ctx, ws.Shards, sj, ws.N, ws.Concurrency, scale)
			if err != nil {
				fatal(err)
			}
			gotFleet.Sizes = append(gotFleet.Sizes, gs)
			if gs.CellRPS < 0.8*ws.CellRPS {
				fmt.Printf("FAIL fleet N=%d cells/s %.1f < 80%% of baseline %.1f\n", ws.Shards, gs.CellRPS, ws.CellRPS)
				failed = true
			}
			if gs.PopularMiss > ws.PopularMiss+0.5 {
				fmt.Printf("FAIL fleet N=%d popular cell computed %.0f times (baseline %.0f): ring placement regressed\n",
					ws.Shards, gs.PopularMiss, ws.PopularMiss)
				failed = true
			}
			if gs.Errors > 0 {
				fmt.Printf("FAIL fleet N=%d: %d requests errored\n", ws.Shards, gs.Errors)
				failed = true
			}
		}
		gotFleet.ScalingX = scalingX(gotFleet.Sizes)
		if want.Fleet.ScalingX > 0 && gotFleet.ScalingX < 0.8*want.Fleet.ScalingX {
			fmt.Printf("FAIL fleet scaling %.2fx < 80%% of baseline %.2fx\n", gotFleet.ScalingX, want.Fleet.ScalingX)
			failed = true
		}
		if !failed {
			fmt.Printf("ok   fleet scaling %.2fx (baseline %.2fx) across sizes %v\n",
				gotFleet.ScalingX, want.Fleet.ScalingX, fleetSizesOf(gotFleet.Sizes))
		}
	}

	if failed {
		os.Exit(1)
	}
}

func fleetSizesOf(sizes []fleetSize) []int {
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, s.Shards)
	}
	return out
}

func writeOut(path string, data []byte) {
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rockload:", err)
	os.Exit(1)
}
