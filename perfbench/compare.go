package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layerBound is how much worse a per-layer metric's normalized median
// may get before the comparison flags it. BENCHMARK.json fixes bounds
// for the end-to-end metrics only.
const layerBound = 0.10

// bound is one metric's regression rule.
type bound struct {
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening, as a share of the base median
	Time   bool    // a host time: normalized by the host calibration
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// timeUnits are the units of host-time metrics.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "ns/cycle": true}

// loadBounds reads the metric rules from BENCHMARK.json.
func loadBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound)
	for _, m := range s.EndToEnd {
		out[m.Name] = bound{Better: m.Better, Bound: m.Bound}
	}
	for _, m := range s.PerLayer {
		out[m.Name] = bound{Better: m.Better, Bound: layerBound, Time: timeUnits[m.Unit]}
	}
	return out, nil
}

// finding is the comparison of one metric of one workload.
type finding struct {
	Workload, Metric string
	Base, Cand       float64 // medians (normalized for per-layer times)
	Worse            float64 // worsening as a share of Base (negative = better)
	Verdict          string  // "ok", "worse" or "unresolved"
}

// compareRuns compares the candidate's runs with the base's, per
// workload and metric. A metric is "worse" when the candidate median is
// worse than the base median by more than its bound; "unresolved" when
// that holds but the base's own quartile spread is wider than the
// bound, unless every candidate run is worse than every base run.
// Per-layer host times are first multiplied by the run's emulator
// speed, so a slower host does not read as a slower layer.
func compareRuns(base, cand []record, bounds map[string]bound) []finding {
	type key struct {
		wl, metric string
	}
	values := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, rec := range recs {
			for name, m := range rec.Result.Metrics {
				b, ok := bounds[name]
				if !ok {
					continue
				}
				v := m.Value
				if b.Time {
					v *= rec.Host.EmuMIPS
				}
				k := key{rec.Workload, name}
				out[k] = append(out[k], v)
			}
		}
		return out
	}
	bv, cv := values(base), values(cand)
	var keys []key
	for k := range bv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return keys[i].metric < keys[j].metric
	})
	var out []finding
	for _, k := range keys {
		b := bounds[k.metric]
		bm, cm := median(bv[k]), median(cv[k])
		worse := ratio(cm-bm, bm)
		if b.Better == "higher" {
			worse = -worse
		}
		f := finding{Workload: k.wl, Metric: k.metric, Base: bm, Cand: cm, Worse: worse, Verdict: "ok"}
		if worse > b.Bound {
			f.Verdict = "worse"
			if quartileSpread(bv[k]) > b.Bound && !separated(bv[k], cv[k], b.Better) {
				f.Verdict = "unresolved"
			}
		}
		out = append(out, f)
	}
	return out
}

// separated reports whether every candidate value is worse than every
// base value.
func separated(base, cand []float64, better string) bool {
	for _, b := range base {
		for _, c := range cand {
			if (better == "higher" && c >= b) || (better != "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

// readRecords loads every result record in dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	return out, nil
}

// compareDirs prints the comparison of two directories of result
// records, with the bounds of ./BENCHMARK.json, and returns an error if
// any metric got worse.
func compareDirs(w io.Writer, baseDir, candDir string) error {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(baseDir)
	if err != nil {
		return err
	}
	cand, err := readRecords(candDir)
	if err != nil {
		return err
	}
	if hb, hc := base[0].Host, cand[0].Host; hb.NumCPU != hc.NumCPU || hb.GoVersion != hc.GoVersion {
		fmt.Fprintf(w, "warning: different hosts (nproc %d vs %d, %s vs %s); per-layer times are normalized by isa.emu_minsts_per_s\n",
			hb.NumCPU, hc.NumCPU, hb.GoVersion, hc.GoVersion)
	}
	var bad []string
	for _, f := range compareRuns(base, cand, bounds) {
		fmt.Fprintf(w, "%-11s %-36s base %12.4f cand %12.4f worse %+7.1f%%  %s\n",
			f.Workload, f.Metric, f.Base, f.Cand, 100*f.Worse, f.Verdict)
		if f.Verdict == "worse" {
			bad = append(bad, f.Workload+"/"+f.Metric)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse beyond bound: %s", strings.Join(bad, ", "))
	}
	return nil
}
