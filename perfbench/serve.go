package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// serve-hot's schedule. The open loop's rate sits near 25% of the
// closed-loop capacity measured on a 2-CPU host (≈ 800 req/s with two
// connections); BENCHMARK.json's "why" line records it. The open loop
// runs a whole number of passes over the cells (see hotOrder), about
// hotShare of the run's seconds, and the closed-loop saturation phase
// that follows runs satPasses passes.
const (
	hotRate    = 200.0 // req/s
	hotTailQ   = 0.99
	hotTimeout = 10 * time.Second
	hotShare   = 0.8
	satPasses  = 28
)

// cell is one /v1/run request of serve-hot.
type cell struct {
	req     serve.RunRequest
	payload []byte
}

func newCell(kind, wl string) cell {
	req := serve.RunRequest{Kind: kind, Workload: wl, Scale: "test"}
	return cell{req: req, payload: mustJSON(req)}
}

// defaultCells are the 112 (kind × workload) cells at test scale with
// default options.
func defaultCells() []cell {
	var out []cell
	for _, k := range sim.Kinds {
		for _, wl := range workload.Names {
			out = append(out, newCell(k.String(), wl))
		}
	}
	return out
}

// hotOrder returns serve-hot's request generator over n cells: one pass
// after another, each pass every cell once in an order drawn from the
// seed. It assumes no popularity: every pass costs the same whatever
// the seed, which changes only the order of the requests. It returns
// indices into defaultCells.
func hotOrder(seed int64, n int) func() int {
	rng := rand.New(rand.NewSource(seed))
	var pass []int
	return func() int {
		if len(pass) == 0 {
			pass = rng.Perm(n)
		}
		c := pass[0]
		pass = pass[1:]
		return c
	}
}

// hotPhases drives the open loop at hotRate, then, when saturate is
// set, saturates the service with a closed loop of r.conns clients.
// send(k, n) returns the request function of phase k, which sends n
// requests. It returns the open loop and the saturation phase's
// completion rate.
func hotPhases(ctx context.Context, r *run, cells int, send func(phase, n int) sendFunc, saturate bool) (low loopResult, sat float64) {
	passes := max(1, int(math.Round(hotShare*r.seconds*hotRate/float64(cells))))
	low = openLoop(ctx, hotRate, passes*cells, r.conns, hotTimeout, send(0, passes*cells))
	r.attempted += low.Sent
	r.failed += low.Failed
	if !saturate {
		return low, 0
	}
	n := satPasses * cells
	sat, failed := closedLoop(ctx, r.conns, n, hotTimeout, send(1, n))
	r.attempted += n
	r.failed += failed
	return low, sat
}

func describe(res loopResult) string {
	s := res.tail(hotTailQ)
	return fmt.Sprintf("n=%d p50=%.2fms p%.2f=%.2fms failed=%d refused=%d lag.p50=%.3fms",
		s.N, s.P50, 100*s.TailQ, s.Tail, res.Failed, res.Refused, median(res.LagMS))
}

// cellTail returns serve-hot's tail_ms: the open loop composed into one
// typical pass, every cell at its median latency over the loop's passes,
// and that pass's tail at q (lowered until minBeyond cells lie above it).
// lat[i] is the latency of request i, seq[i] its cell. The host steals
// CPU in bursts, and a burst delays every request queued behind it — a
// 100 ms burst at 200 req/s delays about 1% of a 12-second loop, enough
// to set the loop's p99 on its own. A burst delays a cell on one or two
// of its passes, which its median ignores; a cell that is slow to serve
// is slow on every pass.
func cellTail(lat []float64, seq []int, q float64) float64 {
	byCell := make(map[int][]float64)
	for i, c := range seq {
		byCell[c] = append(byCell[c], lat[i])
	}
	var typical []float64
	for _, xs := range byCell {
		typical = append(typical, median(xs))
	}
	return summarize(typical, q).Tail
}

// putServeE2E records serve-hot's end-to-end metrics.
func putServeE2E(r *run, setupS, rss float64, low loopResult, seq []int, sat float64) {
	ls := low.tail(hotTailQ)
	r.put("setup_s", setupS, "s")
	r.put("rss_p90_mb", rss, "MB")
	r.put("latency_ms", finite(ls.P50), "ms")
	r.put("tail_ms", finite(cellTail(low.LatMS, seq, hotTailQ)), "ms")
	r.put("ops_per_s", sat, "1/s")
	r.extra["low_rate"] = hotRate
	r.extra["low_n"] = float64(ls.N)
	r.extra["low_tail_whole_ms"] = finite(ls.Tail)
	r.extra["low_tail_whole_q"] = ls.TailQ
	r.extra["low_fail_ratio"] = low.failRatio()
	r.extra["gen_lag_p99_ms"] = summarize(low.LagMS, 0.99).Tail
	cells := make([]float64, len(seq))
	for i, c := range seq {
		cells[i] = float64(c)
	}
	r.samples = map[string][]float64{"low_lat_ms": low.LatMS, "low_cell": cells}
}

// finite caps a failed request's +Inf latency at the request timeout
// for reporting.
func finite(v float64) float64 {
	return min(v, ms(hotTimeout))
}

// serveHot replays the 112 default cells, all computed during setup, in
// seeded passes (hotOrder) through rockgate: every request is a
// run-cache read. Every body must equal the cell's in-process report.
func serveHot(r *run) error {
	cells := defaultCells()
	var f *fleet
	var warm [][]byte
	up := func() error {
		var err error
		if f, err = startFleet(r.conns); err != nil {
			return err
		}
		warm, err = f.warm(cells, r.conns)
		return err
	}
	var setups []float64
	if err := setUp(&setups, serveSetupReps, up, func() { f.close() }); err != nil {
		return err
	}
	defer func() { f.close() }()
	setupS := median(setups)

	next := hotOrder(r.seed, len(cells))
	var mu sync.Mutex
	var computeUs []float64
	seqs := make(map[int][]int) // each phase's cells, in request order
	send := func(phase, n int) sendFunc {
		// Draw the phase's whole sequence up front: the generator only
		// indexes it.
		seq := make([]int, n)
		for i := range seq {
			seq[i] = next()
		}
		seqs[phase] = seq
		return func(ctx context.Context, i int) error {
			c := seq[i%len(seq)]
			defer requestSpan(ctx, r.seed, phase, i, cells[c]).End()
			rep, err := f.post(ctx, f.gateURL, cells[c].payload, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(rep.Body, warm[c]) {
				r.logf("MISMATCH: serve-hot: %s/%s body differs from its first response", cells[c].req.Kind, cells[c].req.Workload)
				return fmt.Errorf("wrong body")
			}
			mu.Lock()
			computeUs = append(computeUs, float64(rep.ComputeUs))
			mu.Unlock()
			return nil
		}
	}
	ctx := context.Background()
	before, err := f.counters()
	if err != nil {
		return err
	}
	rss := sampleRSS()
	low, sat := hotPhases(ctx, r, len(cells), send, !r.trace)
	rssMB := rss.p90()
	r.logf("serve-hot %.0f req/s: %s", hotRate, describe(low))
	if r.trace {
		sample := make([]cell, 20)
		for i := range sample {
			sample[i] = cells[next()]
		}
		mu.Lock()
		cus := append([]float64(nil), computeUs...)
		mu.Unlock()
		if err := serveLayers(r, f, send, before, low, cus, sample); err != nil {
			return err
		}
		if err := proxyCost(r, f, sample); err != nil {
			return err
		}
	} else {
		putServeE2E(r, setupS, rssMB, low, seqs[0], sat)
	}
	// The gate: every first response equals the in-process report; every
	// later response was compared with the first as it arrived.
	want, err := cachedReports("serve-hot", cells, r.conns)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if !bytes.Equal(warm[i], want[i]) {
			r.fail("serve-hot: %s/%s body differs from the in-process report", c.req.Kind, c.req.Workload)
		}
	}
	return nil
}

// warm sends every cell once through the gateway with conns clients and
// returns the bodies in cell order.
func (f *fleet) warm(cells []cell, conns int) ([][]byte, error) {
	bodies := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				rep, err := f.post(context.Background(), f.gateURL, cells[i].payload, nil)
				if err != nil {
					errs[i] = fmt.Errorf("warm %s/%s: %w", cells[i].req.Kind, cells[i].req.Workload, err)
					continue
				}
				bodies[i] = rep.Body
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// inProcessReports computes each cell's report in this process, exactly
// as sstsim -json would: a fresh metrics registry per cell, default
// options.
func inProcessReports(cells []cell, jobs int) ([][]byte, error) {
	rn := freshRunner(jobs)
	base := sim.DefaultOptions()
	out := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			k, err := sim.KindByName(c.req.Kind)
			if err != nil {
				errs[i] = err
				return
			}
			spec, err := workload.Build(c.req.Workload, workload.ScaleTest)
			if err != nil {
				errs[i] = err
				return
			}
			opts := base
			opts.Metrics = obs.NewRegistry()
			o, err := rn.RunCell(k, spec, opts)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			errs[i] = sim.NewReport(o).WriteJSON(&buf)
			out[i] = buf.Bytes()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveLayers is the traced part of serve-hot, run after its untraced
// open loop: the fleet's run-cache, pool and refusal counters since
// before, the servers' X-Compute-Us, a traced repeat of the open loop
// (its spans go to the trace file, its median against the untraced one
// gives the tracing overhead), the shards' own spans on sample, and the
// per-request and component layer timings.
func serveLayers(r *run, f *fleet, send func(phase, n int) sendFunc, before []shardCounters, low loopResult, computeUs []float64, sample []cell) error {
	after, err := f.counters()
	if err != nil {
		return err
	}
	d := sum(after).sub(sum(before))
	r.put("experiments.cache_hit_ratio", ratio(d.Hits, d.Hits+d.Misses), "ratio")
	r.put("experiments.pool_reuse_ratio", ratio(d.Reused, d.Reused+d.Built), "ratio")
	r.put("serve.refused", d.Refused+float64(low.Refused), "count")
	r.put("fleet.shard_skew", skewOf(before, after), "ratio")
	r.put("serve.compute_ms", median(computeUs)/1000, "ms")
	r.put("bench.gen_lag_ms", summarize(low.LagMS, 0.99).Tail, "ms")
	tr := obs.NewTracer()
	traced := openLoop(obs.WithTracer(context.Background(), tr), hotRate, low.Sent, r.conns, hotTimeout, send(2, low.Sent))
	r.attempted += traced.Sent
	r.failed += traced.Failed
	r.put("bench.trace_overhead_frac", traced.tail(hotTailQ).P50/low.tail(hotTailQ).P50-1, "ratio")
	if err := serveSpans(r, f, sample, "serve-hot"); err != nil {
		return err
	}
	if err := requestLayers(r, sample); err != nil {
		return err
	}
	if err := componentLayers(r); err != nil {
		return err
	}
	r.put("runtime.gc_cpu_frac", gcCPUFrac(), "ratio")
	return writeTrace(r, "serve-hot", tr)
}

// requestSpan opens the benchmark's span for request i of a phase when
// ctx carries a tracer (a traced open loop); otherwise it returns nil, whose
// End does nothing.
func requestSpan(ctx context.Context, seed int64, phase, i int, c cell) *obs.Span {
	tr := obs.TracerFrom(ctx)
	if tr == nil {
		return nil
	}
	sp := tr.Start("request")
	sp.SetAttr("id", fmt.Sprintf("%d-%d-%d", seed, phase, i))
	sp.SetAttr("cell", c.req.Kind+"/"+c.req.Workload)
	return sp
}

// skewOf is max/mean of the cells each shard served between two
// counter readings.
func skewOf(before, after []shardCounters) float64 {
	counts := make([]float64, len(after))
	for i := range after {
		d := after[i].sub(before[i])
		counts[i] = d.Hits + d.Misses
	}
	return skew(counts)
}

// serveSpans sends each sample cell three times straight to its owning
// shard with X-Trace: 1 and reads the shard's own spans back from
// /v1/trace/{id}.
func serveSpans(r *run, f *fleet, sample []cell, tag string) error {
	var adm, queue, asm []float64
	for i := 0; i < 3*len(sample); i++ {
		c := sample[i%len(sample)]
		id := fmt.Sprintf("%s-direct-%d-%d", tag, r.seed, i)
		owner := f.owner(c.req)
		if _, err := f.post(context.Background(), owner, c.payload, map[string]string{"X-Trace": "1", "X-Request-ID": id}); err != nil {
			return err
		}
		r.attempted++
		spans, err := f.traceSpans(owner, id)
		if err != nil {
			return err
		}
		for _, s := range spans {
			switch s.Name {
			case "admission":
				adm = append(adm, float64(s.DurUs))
			case "queue-wait":
				queue = append(queue, float64(s.DurUs))
			case "assemble":
				asm = append(asm, float64(s.DurUs))
			}
		}
	}
	// Means, not medians: the spans count whole microseconds, and a
	// median of a few integers would read the same on every run.
	r.put("serve.admission_us", mean(adm), "us")
	r.put("serve.queue_wait_ms", mean(queue)/1000, "ms")
	r.put("serve.assemble_us", mean(asm), "us")
	return nil
}

// proxyCost is the gateway's time on a hot cell: gateway TTFB minus the
// owning shard's TTFB for the same request, alternating which goes
// first, as a median over pairs.
func proxyCost(r *run, f *fleet, sample []cell) error {
	var diffs []float64
	for rep := 0; rep < 5; rep++ {
		for i, c := range sample {
			targets := []string{f.gateURL, f.owner(c.req)}
			if (rep+i)%2 == 1 {
				targets[0], targets[1] = targets[1], targets[0]
			}
			ttfb := make(map[string]time.Duration)
			for _, t := range targets {
				res, err := f.post(context.Background(), t, c.payload, nil)
				if err != nil {
					return err
				}
				r.attempted++
				ttfb[t] = res.TTFB
			}
			diffs = append(diffs, float64((ttfb[f.gateURL]-ttfb[f.owner(c.req)]).Nanoseconds())/1000)
		}
	}
	r.put("gate.proxy_us", median(diffs), "us")
	return nil
}

// requestLayers times the per-request layer calls the daemon makes
// before simulating — workload.Build and experiments.CellKey — over the
// given cells.
func requestLayers(r *run, sample []cell) error {
	var build, key []float64
	base := sim.DefaultOptions()
	for rep := 0; rep < 5; rep++ {
		for _, c := range sample {
			t0 := time.Now()
			spec, err := workload.Build(c.req.Workload, workload.ScaleTest)
			build = append(build, float64(time.Since(t0).Nanoseconds())/1000)
			if err != nil {
				return err
			}
			k, err := sim.KindByName(c.req.Kind)
			if err != nil {
				return err
			}
			t0 = time.Now()
			experiments.CellKey(k, spec, base)
			key = append(key, float64(time.Since(t0).Nanoseconds())/1000)
		}
	}
	r.put("workload.build_us", mean(build), "us")
	r.put("experiments.cell_key_us", mean(key), "us")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request types always marshal
	}
	return b
}

// serviceProbe measures the serving layers for a traced run whose
// workload does not exercise them: on a fresh fleet warmed with 20 hot
// cells, one second of serve-hot's open loop over them through the
// gateway (compute time, generator lag, shard skew, refusals), the
// shards' own spans on those cells, and the gateway's proxy cost.
func serviceProbe(r *run) error {
	f, err := startFleet(r.conns)
	if err != nil {
		return err
	}
	defer f.close()
	cells := defaultCells()
	next := hotOrder(r.seed, len(cells))
	sample := make([]cell, 20)
	for i := range sample {
		sample[i] = cells[next()]
	}
	if _, err := f.warm(sample, r.conns); err != nil {
		return err
	}
	before, err := f.counters()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var computeUs []float64
	loop := openLoop(context.Background(), hotRate, int(hotRate), r.conns, hotTimeout, func(ctx context.Context, i int) error {
		rep, err := f.post(ctx, f.gateURL, sample[i%len(sample)].payload, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		computeUs = append(computeUs, float64(rep.ComputeUs))
		mu.Unlock()
		return nil
	})
	r.attempted += loop.Sent
	r.failed += loop.Failed
	after, err := f.counters()
	if err != nil {
		return err
	}
	// A workload's own reading of a layer stands; the probe fills gaps.
	set := func(name string, v float64, unit string) {
		if _, ok := r.metrics[name]; !ok {
			r.put(name, v, unit)
		}
	}
	set("serve.compute_ms", mean(computeUs)/1000, "ms")
	set("serve.refused", sum(after).sub(sum(before)).Refused+float64(loop.Refused), "count")
	set("fleet.shard_skew", skewOf(before, after), "ratio")
	set("bench.gen_lag_ms", summarize(loop.LagMS, 0.99).Tail, "ms")
	if err := serveSpans(r, f, sample, "probe"); err != nil {
		return err
	}
	return proxyCost(r, f, sample)
}
