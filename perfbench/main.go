// Command perfbench is the repository benchmark: it regenerates the
// paper grid and drives the rockgate → rocksimd → runner → sim.Instance
// serving path, in one process, and prints one JSON result line.
//
//	perfbench --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: grid-cold, grid-fleet, serve-hot (see README.md). With
// --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, read from calls the
// benchmark times into each layer's public functions, and the run's
// spans are written as Chrome trace JSON under .bench_build/traces/.
// Every output is checked; a mismatch fails the run.
//
//	perfbench --compare BASE_DIR,CAND_DIR
//
// compares two directories of result records (.bench_build/results/)
// and flags the metrics that got worse by more than their bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rocksim/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run's full account, kept under .bench_build/results/:
// the printed result plus the host facts and the figures that are not
// metrics of the result line (fail ratio, sample counts, tail quantiles).
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     hostFacts          `json:"host"`
	Result   result             `json:"result"`
	Extra    map[string]float64 `json:"extra"`
	// Samples are the raw samples behind composed metrics (each grid
	// artifact's time in every regeneration, in ms).
	Samples map[string][]float64 `json:"samples,omitempty"`
	Notes   []string             `json:"notes,omitempty"`
}

// hostFacts identify the machine and settings a run was made on, so
// runs from different hosts or seeds are never compared silently.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	EmuMIPS    float64 `json:"isa_emu_minsts_per_s"`
}

// run is the state one workload fills in.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	conns   int // client connections (= nproc)

	attempted, failed int
	mismatch          []string // correctness failures, by description
	metrics           map[string]metric
	extra             map[string]float64
	samples           map[string][]float64
	notes             []string
}

func (r *run) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a correctness failure; any one fails the run.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.mismatch) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
	}
	r.mismatch = append(r.mismatch, msg)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"grid-cold":  gridCold,
	"grid-fleet": gridFleet,
	"serve-hot":  serveHot,
}

func main() {
	wl := flag.String("workload", "", "grid-cold | grid-fleet | serve-hot")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", 10, "measuring time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	compare := flag.String("compare", "", "BASE_DIR,CAND_DIR: compare two directories of result records")
	flag.Parse()

	if *compare != "" {
		dirs := strings.Split(*compare, ",")
		if len(dirs) != 2 {
			fatalf("--compare wants BASE_DIR,CAND_DIR")
		}
		if err := compareDirs(os.Stdout, dirs[0], dirs[1]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fn, ok := workloads[*wl]
	if !ok {
		fatalf("unknown --workload %q", *wl)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		conns:   runtime.NumCPU(),
		metrics: make(map[string]metric),
		extra:   make(map[string]float64),
	}
	total0, steal0 := cpuTicks()
	if err := fn(r); err != nil {
		fatalf("%s: %v", *wl, err)
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		r.extra["host_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	host := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		EmuMIPS:    emuMinstsPerSec(),
	}
	if r.trace {
		r.put("isa.emu_minsts_per_s", host.EmuMIPS, "Minst/s")
		if err := fillLayers(r); err != nil {
			fatalf("%s: %v", *wl, err)
		}
	}
	if err := conform(r, "BENCHMARK.json"); err != nil {
		fatalf("%s: %v", *wl, err)
	}
	if r.attempted < 1 {
		fatalf("%s: no operation attempted", *wl)
	}
	res := result{
		Correct:   len(r.mismatch) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed + len(r.mismatch),
		Metrics:   r.metrics,
	}
	r.extra["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	rec := record{Workload: *wl, Seed: *seed, Trace: r.trace, Host: host, Result: res, Extra: r.extra, Samples: r.samples, Notes: r.notes}
	if err := writeRecord(rec); err != nil {
		r.logf("result record not written: %v", err)
	}
	printSummary(rec)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// fillLayers measures, in a traced run, the layers its workload does
// not exercise, so every per-layer metric is a measurement on every
// workload (a constant 0 would read as a broken timer).
func fillLayers(r *run) error {
	if _, ok := r.metrics["experiments.exp_s.T1"]; !ok {
		if _, err := timedRegeneration(r, obs.NewTracer().Start("regenerate")); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["cpu.ffwd_gain.sst"]; !ok {
		if err := ffwdGains(r); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["gate.proxy_us"]; !ok {
		if err := serviceProbe(r); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["gate.fanout_us_per_cell"]; !ok {
		return fanoutCost(r)
	}
	return nil
}

// conform checks that the run's metrics are exactly the set
// BENCHMARK.json declares for its mode, with the declared units.
func conform(r *run, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := make(map[string]string)
	for _, m := range s.EndToEnd {
		if !r.trace {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range s.PerLayer {
		if r.trace {
			want[m.Name] = m.Unit
		}
	}
	for name, m := range r.metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not declared in %s", name, path)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %s, %s declares %s", name, m.Unit, path, unit)
		}
	}
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	return nil
}

// writeRecord keeps the run's full account under .bench_build/results/.
func writeRecord(rec record) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printSummary writes the human-readable account to stderr.
func printSummary(rec record) {
	h := rec.Host
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%t nproc=%d GOMAXPROCS=%d %s isa.emu_minsts_per_s=%.1f\n",
		rec.Workload, rec.Seed, rec.Trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.EmuMIPS)
	fmt.Fprintf(os.Stderr, "perfbench:   correct=%t attempted=%d failed=%d fail_ratio=%g\n",
		rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Extra["fail_ratio"])
	for _, name := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(os.Stderr, "perfbench:   %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rec.Extra) {
		fmt.Fprintf(os.Stderr, "perfbench:   (%s) %g\n", name, rec.Extra[name])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
