// Command sstbench regenerates the tables and figures of the reproduced
// SST evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	sstbench                  # run every experiment at full scale
//	sstbench -exp F1,F7       # run selected experiments
//	sstbench -scale test      # small workloads (fast smoke run)
//	sstbench -j 8             # up to 8 concurrent simulation runs
//
// Each experiment's grid of independent simulation runs executes on a
// worker pool bounded by -j (default: one worker per CPU); tables are
// assembled in presentation order, so the output is byte-identical to
// a -j 1 run (wall-clock lines aside).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (T1, T2, F1..F16, S1, T3) or 'all'")
	scaleFlag := flag.String("scale", "full", "workload scale: test | full")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulation runs (1 = serial; output is identical either way)")
	chart := flag.Bool("chart", false, "also render each figure as ASCII bar charts")
	metricsOut := flag.String("metrics", "", "write per-experiment wall-clock and row counters as flat JSON ('-' = stdout)")
	chromeOut := flag.String("chrome-trace", "", "write a Chrome trace_event JSON of per-experiment wall-clock spans (ts = µs since start)")
	traceOut := flag.String("trace", "", "write request-scoped spans (grid root + one child per experiment, Chrome JSON) to this file")
	faultsFlag := flag.String("faults", "", "deterministic fault plan applied to every grid cell, or 'random:SEED' (see docs/ROBUSTNESS.md)")
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog per simulation cell (e.g. 30s; 0 = none); a tripped cell renders as ERR(deadline)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after all experiments) to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sstbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sstbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sstbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sstbench:", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, id := range experiments.All {
			fmt.Println(id)
		}
		return
	}

	scale := workload.ScaleFull
	switch *scaleFlag {
	case "full":
	case "test":
		scale = workload.ScaleTest
	default:
		fmt.Fprintf(os.Stderr, "sstbench: bad -scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	ids := experiments.All
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	r := experiments.NewRunner()
	r.SetJobs(*jobs)
	if *faultsFlag != "" || *timeout > 0 {
		opts := sim.DefaultOptions()
		opts.Timeout = *timeout
		if *faultsFlag != "" {
			plan, err := faults.ParseSpec(*faultsFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sstbench:", err)
				os.Exit(2)
			}
			opts.Faults = plan
		}
		r.SetBaseOptions(opts)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var tr *obs.Trace
	if *chromeOut != "" {
		tr = obs.NewTrace()
	}
	// -trace is the span-tree view of the same grid: a root span with
	// one child per experiment, in the exact format GET /v1/trace/{id}
	// serves for a traced daemon request.
	ctx := context.Background()
	var tracer *obs.Tracer
	var gridSpan *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
		ctx, gridSpan = obs.StartSpan(ctx, "grid")
	}
	t0 := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		_, es := obs.StartSpan(ctx, "experiment")
		es.SetAttr("id", id)
		res, err := r.Run(id, scale)
		es.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sstbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		res.Fprint(os.Stdout)
		if *chart {
			res.FprintCharts(os.Stdout)
		}
		if reg != nil {
			rows := 0
			for _, t := range res.Tables {
				rows += t.NumRows()
			}
			reg.Counter("bench/" + id + "/wall_ms").Set(uint64(elapsed.Milliseconds()))
			reg.Counter("bench/" + id + "/rows").Set(uint64(rows))
			reg.Counter("bench/" + id + "/tables").Set(uint64(len(res.Tables)))
		}
		if tr != nil {
			tr.Span(uint64(start.Sub(t0).Microseconds()), uint64(time.Since(t0).Microseconds()), "experiment", id)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", id, elapsed.Round(time.Millisecond))
	}
	if reg != nil {
		writeOut(*metricsOut, reg.WriteJSON)
	}
	if tr != nil {
		writeOut(*chromeOut, tr.WriteChrome)
	}
	if tracer != nil {
		gridSpan.End()
		writeOut(*traceOut, tracer.WriteChrome)
	}
}

func writeOut(path string, write func(w io.Writer) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			fmt.Fprintln(os.Stderr, "sstbench:", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "sstbench:", err)
		os.Exit(1)
	}
}
