package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("nearestRank of one sample = %v, want 7", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank of no samples = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		want     float64
		wantRank int
	}{
		{1000, 0.99, 990}, // p99 has exactly 10 samples beyond
		{2000, 0.99, 1980},
		{500, 0.99, 490}, // p99 would leave 5: lowered to p98
		{100, 0.95, 90},  // p95 would leave 5: lowered to p90
		{30, 0.95, 20},
		{15, 0.99, 8}, // nothing above the median qualifies
		{1, 0.99, 1},
		{0, 0.99, 0},
	} {
		r := tailRank(c.n, c.want)
		if r != c.wantRank {
			t.Errorf("tailRank(%d, %v) = %d, want %d", c.n, c.want, r, c.wantRank)
		}
		if c.n > 2*minBeyond && c.n-r < minBeyond {
			t.Errorf("tailRank(%d, %v) leaves %d beyond, want >= %d", c.n, c.want, c.n-r, minBeyond)
		}
	}
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // reversed: summarize must sort
	}
	s := summarize(xs, 0.99)
	if s.N != 500 || s.P50 != 250 || s.Tail != 490 || s.TailQ != 0.98 {
		t.Errorf("summarize(500..1) = %+v, want N=500 P50=250 Tail=490 TailQ=0.98", s)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestOpenLoopTimesFromDue: a request that stalls once delays the
// requests queued behind it, and their latency, measured from when each
// was due, shows the stall.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	res := openLoop(context.Background(), 100, 30, 1, time.Second, func(ctx context.Context, i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Failed != 0 {
		t.Fatalf("failed = %d, want 0", res.Failed)
	}
	if res.LatMS[5] < ms(stall) {
		t.Errorf("stalled request latency %.1fms, want >= %.1fms", res.LatMS[5], ms(stall))
	}
	// Request 6 was due 10ms after request 5 and could start only once
	// the stall ended: ~190ms late.
	if res.LatMS[6] < ms(stall)-20 {
		t.Errorf("request after the stall: latency %.1fms, want >= %.1fms (timed from its due time)", res.LatMS[6], ms(stall)-20)
	}
	if res.LatMS[2] > 50 {
		t.Errorf("request before the stall: latency %.1fms, want small", res.LatMS[2])
	}
	// A closed loop would have timed request 6 from its send and hidden
	// the wait; summarize must see the inflated tail.
	if s := res.tail(0.99); s.Tail < ms(stall)/2 {
		t.Errorf("tail %.1fms does not show the stall", s.Tail)
	}
}

// TestRefusedCountsAsFailedAndMissesLimit: 429/503 answers are failures
// and push the tail past any latency limit.
func TestRefusedCountsAsFailedAndMissesLimit(t *testing.T) {
	var n atomic.Int64
	res := openLoop(context.Background(), 500, 100, 2, time.Second, func(ctx context.Context, i int) error {
		n.Add(1)
		if i%5 == 0 {
			return fmt.Errorf("status 429: %w", errRefused)
		}
		return nil
	})
	if n.Load() != 100 || res.Sent != 100 {
		t.Fatalf("sent %d (%d calls), want 100", res.Sent, n.Load())
	}
	if res.Failed != 20 || res.Refused != 20 {
		t.Errorf("failed=%d refused=%d, want 20 and 20", res.Failed, res.Refused)
	}
	if got := res.failRatio(); got != 0.2 {
		t.Errorf("failRatio = %v, want 0.2", got)
	}
	if s := res.tail(0.95); !math.IsInf(s.Tail, 1) {
		t.Errorf("tail with 20%% refused = %v, want +Inf (misses every limit)", s.Tail)
	}
	if s := res.tail(0.5); math.IsInf(s.P50, 1) {
		t.Errorf("median with 20%% refused = %v, want finite", s.P50)
	}
}

// TestCellTailIgnoresOneBurst: a burst that delays 40 consecutive
// requests sets the whole loop's p99 but not the tail of the typical
// pass; cells slow on every pass set it, and a program 20% slower on
// every request moves it by 20%.
func TestCellTailIgnoresOneBurst(t *testing.T) {
	const cells, passes = 112, 21
	next := hotOrder(1, cells)
	seq := make([]int, cells*passes)
	for i := range seq {
		seq[i] = next()
	}
	// Cell c costs 2 + c/100 ms: the tail of the typical pass is cell 101's
	// 3.01 ms, the highest with ten cells above it.
	lat := func(scale float64, burst bool, slowCells int) []float64 {
		xs := make([]float64, len(seq))
		for i, c := range seq {
			xs[i] = scale * (2 + float64(c)/100)
			if c < slowCells {
				xs[i] = 50
			}
		}
		if burst {
			for i := 1000; i < 1040; i++ {
				xs[i] = 100
			}
		}
		return xs
	}
	calm := cellTail(lat(1, false, 0), seq, 0.99)
	if math.Abs(calm-3.01) > 1e-9 {
		t.Fatalf("calm cell tail %.3fms, want 3.01ms", calm)
	}
	burst := lat(1, true, 0)
	if s := summarize(burst, 0.99); s.Tail != 100 {
		t.Errorf("whole-loop p99 with a 40-request burst = %.2fms, want 100ms", s.Tail)
	}
	if got := cellTail(burst, seq, 0.99); got != calm {
		t.Errorf("cell tail with a burst = %.3fms, want %.3fms", got, calm)
	}
	if got := cellTail(lat(1, false, 11), seq, 0.99); got != 50 {
		t.Errorf("cell tail with 11 cells slow on every pass = %.2fms, want 50ms", got)
	}
	if got := cellTail(lat(1.2, false, 0), seq, 0.99); math.Abs(got/calm-1.2) > 1e-9 {
		t.Errorf("cell tail of a program 20%% slower = %.3fms, want %.3fms", got, 1.2*calm)
	}
}

// TestCompareFlagsSlowedLayer: a layer made 20% slower on purpose is
// flagged, the same layer unchanged is not, and a host that is slower
// overall (emulator calibration included) is not mistaken for it.
func TestCompareFlagsSlowedLayer(t *testing.T) {
	bounds := map[string]bound{
		"mem.cache_lookup_ns": {Better: "lower", Bound: layerBound, Time: true},
		"latency_ms":          {Better: "lower", Bound: 0.15},
		"ops_per_s":           {Better: "higher", Bound: 0.15},
	}
	mk := func(lookupNS, p50, ops, emu float64, seed int) record {
		return record{
			Workload: "grid-cold",
			Seed:     int64(seed),
			Host:     hostFacts{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", EmuMIPS: emu},
			Result: result{Metrics: map[string]metric{
				"mem.cache_lookup_ns": {lookupNS, "ns"},
				"latency_ms":          {p50, "ms"},
				"ops_per_s":           {ops, "1/s"},
			}},
		}
	}
	jitter := func(i int) float64 { return 1 + 0.01*float64(i%3-1) }
	var base, same, slowed, slowHost []record
	for i := 0; i < 10; i++ {
		j := jitter(i)
		base = append(base, mk(10*j, 100*j, 50/j, 16, i))
		same = append(same, mk(10*jitter(i+1), 100*jitter(i+1), 50/jitter(i+1), 16, i+100))
		slowed = append(slowed, mk(12*j, 100*j, 50/j, 16, i+100))
		// Everything 25% slower, the emulator too: a slower host.
		slowHost = append(slowHost, mk(12.5*j, 100*j, 50/j, 16/1.25, i+100))
	}
	verdicts := func(cand []record) map[string]string {
		out := make(map[string]string)
		for _, f := range compareRuns(base, cand, bounds) {
			out[f.Metric] = f.Verdict
		}
		return out
	}
	if v := verdicts(slowed); v["mem.cache_lookup_ns"] != "worse" || v["latency_ms"] != "ok" || v["ops_per_s"] != "ok" {
		t.Errorf("layer slowed 20%%: verdicts %v, want only mem.cache_lookup_ns worse", v)
	}
	if v := verdicts(same); v["mem.cache_lookup_ns"] != "ok" {
		t.Errorf("unchanged layer: verdict %q, want ok", v["mem.cache_lookup_ns"])
	}
	if v := verdicts(slowHost); v["mem.cache_lookup_ns"] != "ok" {
		t.Errorf("uniformly slower host: verdict %q, want ok after calibration", v["mem.cache_lookup_ns"])
	}
	fewer := make([]record, len(base))
	for i := range fewer {
		fewer[i] = mk(10, 100, 40*jitter(i), 16, i)
	}
	if v := verdicts(fewer); v["ops_per_s"] != "worse" {
		t.Errorf("throughput down 20%%: verdict %q, want worse (higher is better)", v["ops_per_s"])
	}
}

// TestHotOrder: every pass covers each of the 112 cells once, the same
// seed gives the same sequence, and another seed another order.
func TestHotOrder(t *testing.T) {
	n := len(defaultCells())
	if n != 112 {
		t.Fatalf("%d default cells, want 112", n)
	}
	draw := func(seed int64) []int {
		next := hotOrder(seed, n)
		seq := make([]int, 5*n)
		for i := range seq {
			seq[i] = next()
		}
		return seq
	}
	a, b, c := draw(1), draw(1), draw(2)
	for p := 0; p < 5; p++ {
		seen := make(map[int]bool)
		for _, x := range a[p*n : (p+1)*n] {
			seen[x] = true
		}
		if len(seen) != n {
			t.Errorf("pass %d covers %d of %d cells", p, len(seen), n)
		}
	}
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 1 and 2 drew %d of %d identical requests", same, len(a))
	}
}
