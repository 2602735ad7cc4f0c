package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// This file measures single layers by timing calls into their public
// functions: the memory and predictor components over a recorded
// stream, instance setup and pooled reuse, report encoding, the
// emulator (the host calibration), fast-forward, and the Go runtime's
// own share of CPU.

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the process's resident set every rssEvery while a
// measured phase runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

// sampleRSS starts sampling; p90 stops it and reads the samples.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.mb = append(s.mb, rssMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// p90 stops the sampler and returns the 90th percentile of its samples:
// the resident set the phase held for all but its highest tenth, which
// a collection that happens to run a little later cannot move the way
// it moves the single peak.
func (s *rssSampler) p90() float64 {
	close(s.stop)
	<-s.done
	sorted := append([]float64(nil), s.mb...)
	sort.Float64s(sorted)
	return nearestRank(sorted, 0.9)
}

// cpuTicks returns the machine's CPU time and the part of it the
// hypervisor stole, in ticks since boot, from /proc/stat (zeros where it
// is missing). A run's share of stolen time tells a slow host from a
// slow program.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// rssMB is the process's resident set in MB (Go's own count of memory
// obtained from the OS where /proc is missing).
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcCPUFrac is the share of the process's CPU time spent in the garbage
// collector so far.
func gcCPUFrac() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return ratio(s[0].Value.Float64(), s[1].Value.Float64())
}

// writeTrace writes the run's spans as Chrome trace JSON under
// .bench_build/traces/ and checks the file the way cmd/tracelint does:
// it parses, and every complete event carries numeric ts, dur, pid and
// tid.
func writeTrace(r *run, name string, tr *obs.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		for _, k := range []string{"ts", "dur", "pid", "tid"} {
			if _, ok := ev[k].(float64); !ok {
				r.fail("trace event %d lacks numeric %s", i, k)
			}
		}
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, r.seed))
	r.notes = append(r.notes, "trace: "+path)
	r.logf("trace: %d events in %s", len(doc.TraceEvents), path)
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// stream is a recorded run of the mcf workload on the functional
// emulator: its data addresses (loads and stores, in order) and its
// conditional branches with their outcomes.
type stream struct {
	addrs  []uint64
	writes []bool
	pcs    []uint64
	taken  []bool
}

const streamLen = 200_000

var recorded = sync.OnceValues(func() (*stream, error) {
	spec, err := workload.Build("mcf", workload.ScaleTest)
	if err != nil {
		return nil, err
	}
	m := mem.NewSparse()
	spec.Program.Load(m)
	s := &stream{}
	rec := &recordingMem{inner: m, s: s}
	e := isa.NewEmulator(spec.Program.Entry, rec)
	rec.e = e
	pending := false
	var pendPC uint64
	e.Hook = func(pc uint64, in isa.Inst) {
		if pending && len(s.pcs) < streamLen {
			s.pcs = append(s.pcs, pendPC)
			s.taken = append(s.taken, pc != pendPC+isa.InstSize)
		}
		pending = in.Op.Class() == isa.ClassBranch
		pendPC = pc
	}
	for !e.Halted && (len(s.addrs) < streamLen || len(s.pcs) < streamLen) {
		if _, err := e.Step(); errors.Is(err, isa.ErrHalted) {
			break
		} else if err != nil {
			return nil, err
		}
	}
	return s, nil
})

// recordingMem records the emulator's data accesses (instruction
// fetches read InstSize bytes at the PC and are left out).
type recordingMem struct {
	inner *mem.Sparse
	e     *isa.Emulator
	s     *stream
}

func (m *recordingMem) Read(addr uint64, size int) uint64 {
	if !(size == isa.InstSize && addr == m.e.PC) && len(m.s.addrs) < streamLen {
		m.s.addrs = append(m.s.addrs, addr)
		m.s.writes = append(m.s.writes, false)
	}
	return m.inner.Read(addr, size)
}

func (m *recordingMem) Write(addr uint64, size int, val uint64) {
	if len(m.s.addrs) < streamLen {
		m.s.addrs = append(m.s.addrs, addr)
		m.s.writes = append(m.s.writes, true)
	}
	m.inner.Write(addr, size, val)
}

// perOp runs pass reps times and returns the median time per operation
// in ns, pass doing n operations.
func perOp(reps, n int, pass func()) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		pass()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ts)
}

// shortProgram is a service-shaped cell: a few hundred instructions
// over a small table, a couple of thousand simulated cycles.
const shortProgram = `
	li   r5, 0
	li   r6, 0
	li   r7, 64
	li   r8, 0x200000
loop:	ld64 r9, (r8)
	add  r5, r5, r9
	addi r8, r8, 8
	addi r6, r6, 1
	bne  r6, r7, loop
	halt
	.data 0x200000
tbl:	.quad 2, 7, 1, 8, 2, 8, 1, 8
	.zero 448
`

// componentLayers measures the component, setup and encode layers.
func componentLayers(r *run) error {
	s, err := recorded()
	if err != nil {
		return fmt.Errorf("recording the mcf stream: %w", err)
	}
	hc := mem.DefaultHierConfig()

	c := mem.NewCache(hc.L1D)
	r.put("mem.cache_lookup_ns", perOp(5, len(s.addrs), func() {
		c.Reset()
		for i, a := range s.addrs {
			if _, hit := c.Lookup(a, uint64(i), s.writes[i]); !hit {
				c.Fill(a, uint64(i)+1, s.writes[i])
			}
		}
	}), "ns")

	h, err := mem.NewHierarchy(hc, 1)
	if err != nil {
		return err
	}
	r.put("mem.hier_access_ns", perOp(5, len(s.addrs), func() {
		h.Reset()
		now := uint64(0)
		for i, a := range s.addrs {
			kind := mem.AccRead
			if s.writes[i] {
				kind = mem.AccWrite
			}
			now = h.Access(0, kind, a, now).Ready
		}
	}), "ns")

	for _, kind := range []bpred.Kind{bpred.Gshare, bpred.TAGE} {
		cfg := bpred.DefaultConfig()
		cfg.Kind = kind
		p := bpred.New(cfg)
		r.put("bpred.dir_ns."+strings.ToLower(kind.String()), perOp(5, len(s.pcs), func() {
			p.Reset()
			for i, pc := range s.pcs {
				pred := p.PredictDir(pc)
				p.UpdateDir(pc, s.taken[i], pred != s.taken[i])
			}
		}), "ns")
	}

	opts := sim.DefaultOptions()
	var setup []float64
	for rep := 0; rep < 3; rep++ {
		for _, k := range sim.Kinds {
			t0 := time.Now()
			if _, err := sim.NewInstance(k, opts); err != nil {
				return err
			}
			setup = append(setup, float64(time.Since(t0).Nanoseconds())/1000)
		}
	}
	r.put("sim.fresh_setup_us", median(setup), "us")

	prog, err := asm.Assemble(shortProgram)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var runUs, allocs []float64
	var first sim.Outcome
	for _, k := range sim.Kinds {
		in, err := sim.NewInstance(k, opts)
		if err != nil {
			return err
		}
		if first, err = in.Run(ctx, prog, opts); err != nil {
			return err
		}
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			out, err := in.Run(ctx, prog, opts)
			if err != nil {
				return err
			}
			if out.Cycles != first.Cycles || out.Retired != first.Retired {
				r.fail("pooled %v run %d: %d cycles / %d retired, first run %d / %d", k, i, out.Cycles, out.Retired, first.Cycles, first.Retired)
			}
		}
		runUs = append(runUs, float64(time.Since(t0).Nanoseconds())/1000/n)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/n)
	}
	r.put("sim.pooled_run_us", mean(runUs), "us")
	r.put("sim.pooled_allocs_per_run", mean(allocs), "count")

	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		return err
	}
	ropts := sim.DefaultOptions()
	ropts.Metrics = obs.NewRegistry()
	out, err := sim.Run(sim.KindSST, spec.Program, ropts)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	r.put("sim.report_encode_us", perOp(5, 50, func() {
		for i := 0; i < 50; i++ {
			buf.Reset()
			if err := sim.NewReport(out).WriteJSON(&buf); err != nil {
				r.fail("report encode: %v", err)
			}
		}
	})/1000, "us")
	return nil
}

// ffwdGains is each core kind's naive ÷ fast-forwarded host time over
// the chase and mcf cells. Both modes must simulate the same cycles and
// retire the same instructions.
func ffwdGains(r *run) error {
	ctx := context.Background()
	for _, k := range sim.Kinds {
		var naive, ffwd time.Duration
		for _, wl := range []string{"chase", "mcf"} {
			spec, err := workload.Build(wl, workload.ScaleTest)
			if err != nil {
				return err
			}
			var outs [2]sim.Outcome
			for i, noFF := range []bool{false, true} {
				opts := sim.DefaultOptions()
				opts.NoFastForward = noFF
				in, err := sim.NewInstance(k, opts)
				if err != nil {
					return err
				}
				t0 := time.Now()
				if outs[i], err = in.Run(ctx, spec.Program, opts); err != nil {
					return err
				}
				if noFF {
					naive += time.Since(t0)
				} else {
					ffwd += time.Since(t0)
				}
			}
			if outs[0].Cycles != outs[1].Cycles || outs[0].Retired != outs[1].Retired {
				r.fail("fast-forward %v/%s: %d cycles / %d retired, naive %d / %d",
					k, wl, outs[0].Cycles, outs[0].Retired, outs[1].Cycles, outs[1].Retired)
			}
		}
		r.put("cpu.ffwd_gain."+k.String(), ratio(float64(naive), float64(ffwd)), "x")
	}
	return nil
}

// emuMinstsPerSec is the functional emulator's speed on the oltp
// workload, in millions of instructions per second: the host
// calibration that lets runs from different hosts be read together.
func emuMinstsPerSec() float64 {
	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		return 0
	}
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		e, _, err := sim.RunEmulator(spec.Program, 50_000_000)
		if err != nil {
			return 0
		}
		rates = append(rates, float64(e.Executed)/time.Since(t0).Seconds()/1e6)
	}
	return median(rates)
}
