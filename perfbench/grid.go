package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/obs"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// Set-up repetitions: setup_s is the median of every set-up of a run.
// The service workloads set up serveSetupReps times, seconds each. The
// grid set-ups take milliseconds, short enough for one stall of the
// host to cover them all, so the grid workloads set up gridSetupReps
// times before each regeneration, spreading the set-ups over the run.
const (
	gridSetupReps  = 5
	serveSetupReps = 3
)

// remoteSafeIDs lists the artifacts the gateway assembles from cells.
func remoteSafeIDs() []string {
	var ids []string
	for _, id := range experiments.All {
		if experiments.RemoteSafe(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// render regenerates ids on rn as sstbench prints them, minus the
// wall-clock lines (the body rocksimd and rockgate serve for a grid).
// onExp, when non-nil, brackets each artifact.
func render(rn *experiments.Runner, ids []string, onExp func(id string) func()) ([]byte, error) {
	var buf bytes.Buffer
	for _, id := range ids {
		var done func()
		if onExp != nil {
			done = onExp(id)
		}
		res, err := rn.Run(id, workload.ScaleTest)
		if done != nil {
			done()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		if len(res.Errs) > 0 {
			return nil, fmt.Errorf("%s: failed cells: %v", id, res.Errs)
		}
		res.Fprint(&buf)
		fmt.Fprintln(&buf)
	}
	return buf.Bytes(), nil
}

// freshRunner is a new Runner (empty run cache, empty pool).
func freshRunner(jobs int) *experiments.Runner {
	rn := experiments.NewRunner()
	rn.SetJobs(jobs)
	return rn
}

// buildInputs generates every workload program the grid simulates.
func buildInputs() error {
	_, err := workload.BuildAll(workload.ScaleTest)
	return err
}

// referenceParts renders every artifact of experiments.All serially in
// process (-j 1) and returns each artifact's render by id: the byte
// reference both grid workloads are checked against, grid-fleet's being
// a subset. An artifact renders the same whatever ran before it on the
// Runner, so the parts of a subset concatenate to the subset's render.
func referenceParts() (map[string][]byte, error) {
	b, err := cachedRef("grid reference "+strings.Join(experiments.All, ","), func() ([]byte, error) {
		rn := freshRunner(1)
		parts := make(map[string][]byte)
		for _, id := range experiments.All {
			out, err := render(rn, []string{id}, nil)
			if err != nil {
				return nil, err
			}
			parts[id] = out
		}
		return json.Marshal(parts)
	})
	if err != nil {
		return nil, err
	}
	var parts map[string][]byte
	return parts, json.Unmarshal(b, &parts)
}

// setUp runs setup reps times, appending each time in seconds to ts.
// Every repetition but the last is torn down by teardown; the last is
// left up for the workload.
func setUp(ts *[]float64, reps int, setup func() error, teardown func()) error {
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		*ts = append(*ts, time.Since(t0).Seconds())
	}
	return nil
}

// regens collects the artifact times of a run's regenerations. The run
// reports regenerations composed from them — each artifact at its
// fastest, and each at its mean, over the run's regenerations — rather
// than any one regeneration's wall time: the host steals CPU in bursts,
// which only ever slow an artifact down, and composing keeps one burst
// from moving the whole figure.
type regens struct {
	perID  map[string][]float64 // ms, one per regeneration
	totals []float64            // ms, wall time of each regeneration
}

func newRegens() *regens { return &regens{perID: make(map[string][]float64)} }

// timer returns an onExp callback for render that records each
// artifact's time.
func (g *regens) timer() func(id string) func() {
	return func(id string) func() {
		t0 := time.Now()
		return func() { g.perID[id] = append(g.perID[id], ms(time.Since(t0))) }
	}
}

// minRegens is how many regenerations an untraced grid run makes at
// least; more follow while the run's time allows.
const minRegens = 3

// more reports whether another regeneration should run: always until
// min have, then, in an untraced run, while one more is expected to end
// within seconds of start.
func (g *regens) more(r *run, min int, start time.Time) bool {
	if len(g.totals) < min {
		return true
	}
	return !r.trace && time.Since(start).Seconds()+median(g.totals)/1000 <= r.seconds
}

// composed returns the regeneration with every artifact at its fastest
// and with every artifact at its mean.
func (g *regens) composed() (best, typical float64) {
	for _, ts := range g.perID {
		best += slices.Min(ts)
		typical += mean(ts)
	}
	return best, typical
}

// putGridE2E records a grid workload's end-to-end metrics: latency_ms
// and tail_ms are the composed fastest and typical regenerations,
// ops_per_s the cells simulated per second of the fastest.
func putGridE2E(r *run, g *regens, setupS, rss, cells float64) {
	best, typical := g.composed()
	r.put("setup_s", setupS, "s")
	r.put("rss_p90_mb", rss, "MB")
	r.put("latency_ms", best, "ms")
	r.put("tail_ms", typical, "ms")
	r.put("ops_per_s", cells/(best/1000), "1/s")
	r.extra["regenerations"] = float64(len(g.totals))
	r.extra["regeneration_wall_median_ms"] = median(g.totals)
	r.extra["cells"] = cells
	r.samples = g.perID
}

// gridCold regenerates every artifact of experiments.All, in order, on
// a fresh Runner per regeneration, as sstbench does: at least minRegens
// times, and again while the run's time allows (once in a traced run,
// which then measures the layers).
func gridCold(r *run) error {
	ids := experiments.All
	var setups []float64
	g := newRegens()
	var renders [][]byte
	var rn *experiments.Runner
	min := minRegens
	if r.trace {
		min = 1
	}
	rss := sampleRSS()
	t0 := time.Now()
	for g.more(r, min, t0) {
		if err := setUp(&setups, gridSetupReps, buildInputs, func() {}); err != nil {
			return err
		}
		rn = freshRunner(r.conns)
		start := time.Now()
		out, err := render(rn, ids, g.timer())
		g.totals = append(g.totals, ms(time.Since(start)))
		r.attempted++
		if err != nil {
			return fmt.Errorf("regeneration: %w", err)
		}
		renders = append(renders, out)
	}
	rssMB := rss.p90()
	hits, misses := rn.CacheStats()
	reused, built := rn.PoolStats()
	r.logf("grid-cold: %d regenerations %v ms; cache %d hits / %d misses; pool %d built of %d runs",
		len(g.totals), g.totals, hits, misses, built, built+reused)
	if r.trace {
		r.put("experiments.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
		r.put("experiments.pool_reuse_ratio", ratio(float64(reused), float64(reused+built)), "ratio")
		out, err := gridColdLayers(r, ids, g.totals[0])
		if err != nil {
			return err
		}
		renders = append(renders, out)
	} else {
		putGridE2E(r, g, median(setups), rssMB, float64(misses))
	}
	return checkRenders(r, "grid-cold", ids, renders)
}

// checkRenders compares every render with the -j 1 in-process reference
// of the same ids in the same order.
func checkRenders(r *run, name string, ids []string, renders [][]byte) error {
	parts, err := referenceParts()
	if err != nil {
		return fmt.Errorf("reference render: %w", err)
	}
	var ref []byte
	for _, id := range ids {
		ref = append(ref, parts[id]...)
	}
	for i, b := range renders {
		if !bytes.Equal(b, ref) {
			r.fail("%s: render %d differs from the -j 1 reference", name, i+1)
		}
	}
	return nil
}

// gridColdLayers is the traced part of grid-cold: each artifact's time,
// each core kind's host time per simulated cycle over the grid's own
// cells, fast-forward gains, the component timings, and the tracing
// overhead. It returns the traced regeneration's render.
func gridColdLayers(r *run, ids []string, untracedMS float64) ([]byte, error) {
	tr := obs.NewTracer()
	root := tr.Start("regenerate")
	root.SetAttr("id", fmt.Sprintf("grid-cold-%d", r.seed))
	start := time.Now()
	out, err := timedRegeneration(r, root)
	tracedMS := ms(time.Since(start))
	root.End()
	if err != nil {
		return nil, err
	}
	r.put("bench.trace_overhead_frac", tracedMS/untracedMS-1, "ratio")
	if err := ffwdGains(r); err != nil {
		return nil, err
	}
	if err := requestLayers(r, defaultCells()); err != nil {
		return nil, err
	}
	if err := componentLayers(r); err != nil {
		return nil, err
	}
	r.put("runtime.gc_cpu_frac", gcCPUFrac(), "ratio")
	return out, writeTrace(r, "grid-cold", tr)
}

// timedRegeneration regenerates experiments.All with a span per artifact
// under root and every cell computed by a timedBackend, and records each
// artifact's time and each core kind's host time per simulated cycle.
func timedRegeneration(r *run, root *obs.Span) ([]byte, error) {
	tb := newTimedBackend()
	var mu sync.Mutex
	var cur *obs.Span
	tb.parent = func() *obs.Span { mu.Lock(); defer mu.Unlock(); return cur }
	rn := freshRunner(r.conns)
	rn.SetComputeBackend(tb.compute)
	expS := make(map[string]float64)
	out, err := render(rn, experiments.All, func(id string) func() {
		sp := root.StartChild("experiment")
		sp.SetAttr("id", id)
		mu.Lock()
		cur = sp
		mu.Unlock()
		t0 := time.Now()
		return func() {
			sp.End()
			expS[id] = time.Since(t0).Seconds()
		}
	})
	if err != nil {
		return nil, err
	}
	for _, id := range experiments.All {
		r.put("experiments.exp_s."+id, expS[id], "s")
	}
	for _, k := range sim.Kinds {
		r.put("core.ns_per_simcycle."+k.String(), tb.nsPerCycle(k), "ns/cycle")
	}
	_, misses := rn.CacheStats()
	r.extra["traced_regeneration_built"] = float64(tb.built)
	r.logf("traced regeneration: %d instances built for %d computed cells", tb.built, misses)
	return out, nil
}

// timedBackend computes each cell the way the Runner's own backend
// does — on an instance reused from a free list per sim.PoolKey shape,
// built only when none is idle — and times its Instance.Run alone
// (construction excluded), so the trace attributes host time to each
// core kind. Reusing instances keeps the traced regeneration on the
// untraced one's path: experiments.exp_s and bench.trace_overhead_frac
// do not count constructions the untraced path does not make.
type timedBackend struct {
	mu     sync.Mutex
	ns     map[sim.Kind]float64
	cycles map[sim.Kind]float64
	idle   map[string][]*sim.Instance
	built  int // instances constructed
	parent func() *obs.Span
}

func newTimedBackend() *timedBackend {
	return &timedBackend{ns: make(map[sim.Kind]float64), cycles: make(map[sim.Kind]float64),
		idle: make(map[string][]*sim.Instance)}
}

func (tb *timedBackend) compute(ctx context.Context, k sim.Kind, spec *workload.Spec, opts sim.Options) (sim.Outcome, error) {
	key := sim.PoolKey(k, opts)
	tb.mu.Lock()
	var in *sim.Instance
	if free := tb.idle[key]; len(free) > 0 {
		in, tb.idle[key] = free[len(free)-1], free[:len(free)-1]
	}
	tb.mu.Unlock()
	if in == nil {
		var err error
		if in, err = sim.NewInstance(k, opts); err != nil {
			return sim.Outcome{}, err
		}
		tb.mu.Lock()
		tb.built++
		tb.mu.Unlock()
	}
	sp := tb.parent().StartChild("sim-run")
	sp.SetAttr("kind", k.String())
	sp.SetAttr("workload", spec.Name)
	start := time.Now()
	out, err := in.Run(ctx, spec.Program, opts)
	d := time.Since(start)
	sp.End()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.idle[key] = append(tb.idle[key], in)
	if err == nil {
		tb.ns[k] += float64(d.Nanoseconds())
		tb.cycles[k] += float64(out.Cycles)
	}
	return out, err
}

func (tb *timedBackend) nsPerCycle(k sim.Kind) float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return ratio(tb.ns[k], tb.cycles[k])
}

// gridFleet regenerates the gateway-assembled artifacts through
// rockgate over two cold shards: one POST /v1/grid per artifact, in
// order, on a freshly started fleet for every regeneration, so each
// artifact's cells reach the shards over /v1/cell. At least minRegens
// times, and again while the run's time allows; in a traced run once
// untraced, then once traced.
func gridFleet(r *run) error {
	ids := remoteSafeIDs()
	var f *fleet
	up := func() (err error) { f, err = startFleet(r.conns); return err }
	down := func() {
		if f != nil {
			f.close()
		}
	}
	defer down()
	var setups []float64
	g := newRegens()
	var renders [][]byte
	var cells, skews []float64
	var tot shardCounters
	tr := obs.NewTracer()
	min := minRegens
	if r.trace {
		min = 2
	}
	rss := sampleRSS()
	t0 := time.Now()
	for g.more(r, min, t0) {
		down()
		if err := setUp(&setups, gridSetupReps, up, down); err != nil {
			return err
		}
		var root *obs.Span
		if r.trace && len(g.totals) == 1 {
			root = tr.Start("regenerate")
			root.SetAttr("id", fmt.Sprintf("grid-fleet-%d", r.seed))
		}
		var body bytes.Buffer
		start := time.Now()
		for _, id := range ids {
			sp := root.StartChild("grid")
			sp.SetAttr("exp", id)
			done := g.timer()(id)
			part, err := f.postGrid(mustJSON(serve.GridRequest{Exps: []string{id}, Scale: "test"}))
			done()
			sp.End()
			r.attempted++
			if err != nil {
				return fmt.Errorf("grid %s: %w", id, err)
			}
			body.Write(part)
		}
		g.totals = append(g.totals, ms(time.Since(start)))
		root.End()
		renders = append(renders, body.Bytes())
		per, err := f.counters()
		if err != nil {
			return err
		}
		tot = sum(per)
		misses := make([]float64, len(per))
		for i, c := range per {
			misses[i] = c.Misses
		}
		cells = append(cells, tot.Hits+tot.Misses)
		skews = append(skews, skew(misses))
	}
	rssMB := rss.p90()
	r.logf("grid-fleet: %d regenerations %v ms, %v cells each", len(g.totals), g.totals, cells)
	if r.trace {
		// The same artifacts regenerated in process with as many
		// simulations in flight as the fleet runs: what the gateway and
		// the wire add per fanned-out cell.
		start := time.Now()
		if _, err := render(freshRunner(numShards), ids, nil); err != nil {
			return err
		}
		inproc := ms(time.Since(start))
		r.put("gate.fanout_us_per_cell", (g.totals[0]-inproc)*1000/cells[0], "us")
		r.put("fleet.shard_skew", median(skews), "ratio")
		r.put("experiments.cache_hit_ratio", ratio(tot.Hits, tot.Hits+tot.Misses), "ratio")
		r.put("experiments.pool_reuse_ratio", ratio(tot.Reused, tot.Reused+tot.Built), "ratio")
		r.put("serve.refused", tot.Refused, "count")
		r.put("bench.trace_overhead_frac", g.totals[1]/g.totals[0]-1, "ratio")
		if err := requestLayers(r, defaultCells()); err != nil {
			return err
		}
		if err := componentLayers(r); err != nil {
			return err
		}
		r.put("runtime.gc_cpu_frac", gcCPUFrac(), "ratio")
		if err := writeTrace(r, "grid-fleet", tr); err != nil {
			return err
		}
	} else {
		putGridE2E(r, g, median(setups), rssMB, median(cells))
	}
	return checkRenders(r, "grid-fleet", ids, renders)
}

// fanoutCost measures the cell fan-out for a traced run whose workload
// does not exercise it: the gateway-assembled artifacts regenerated
// once through a fresh fleet, one /v1/grid each, against the same ids
// in process with as many simulations in flight, per fanned-out cell.
// The fleet's render is checked against the reference too.
func fanoutCost(r *run) error {
	ids := remoteSafeIDs()
	f, err := startFleet(r.conns)
	if err != nil {
		return err
	}
	defer f.close()
	var body bytes.Buffer
	start := time.Now()
	for _, id := range ids {
		part, err := f.postGrid(mustJSON(serve.GridRequest{Exps: []string{id}, Scale: "test"}))
		r.attempted++
		if err != nil {
			return fmt.Errorf("grid %s: %w", id, err)
		}
		body.Write(part)
	}
	fleetMS := ms(time.Since(start))
	per, err := f.counters()
	if err != nil {
		return err
	}
	tot := sum(per)
	start = time.Now()
	if _, err := render(freshRunner(numShards), ids, nil); err != nil {
		return err
	}
	r.put("gate.fanout_us_per_cell", (fleetMS-ms(time.Since(start)))*1000/(tot.Hits+tot.Misses), "us")
	return checkRenders(r, "fan-out probe", ids, [][]byte{body.Bytes()})
}
