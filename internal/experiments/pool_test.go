package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// TestPoolReusesInstances: distinct cache cells that share a machine
// shape must be served by one recycled simulator, not one construction
// each. GC is paused for the assertion window — sync.Pool is allowed to
// drop idle instances at collection, and this test is about reuse
// behavior, not GC policy. The test also runs on one P: sync.Pool keeps
// a private slot per P that other Ps cannot steal, so a worker goroutine
// that migrates between Put and Get would miss the pool and build a
// second instance even with GC off.
func TestPoolReusesInstances(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRunner()
	r.SetJobs(1)
	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	// Vary a per-run option so every request is a cache MISS (distinct
	// fingerprint) with an identical pool shape.
	for i := 0; i < 4; i++ {
		opts.MaxCycles = uint64(100_000_000 + i)
		if _, err := r.RunCell(sim.KindSST, spec, opts); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := r.CacheStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("want 4 cache misses and 0 hits, got %d misses, %d hits", misses, hits)
	}
	reused, built := r.PoolStats()
	if built != 1 {
		t.Errorf("want 1 instance built for one shape, got %d", built)
	}
	if reused != 3 {
		t.Errorf("want 3 pooled reuses, got %d", reused)
	}

	// A different shape must not share instances with the first.
	other := opts
	other.SST.DQSize *= 2
	if _, err := r.RunCell(sim.KindSST, spec, other); err != nil {
		t.Fatal(err)
	}
	if _, built = r.PoolStats(); built != 2 {
		t.Errorf("want a second instance for a second shape, got %d built", built)
	}

	// A cache hit must not touch the pool at all.
	reused, _ = r.PoolStats()
	if _, err := r.RunCell(sim.KindSST, spec, other); err != nil {
		t.Fatal(err)
	}
	if r2, b2 := r.PoolStats(); r2 != reused || b2 != 2 {
		t.Errorf("cache hit touched the pool: reused %d->%d, built 2->%d", reused, r2, b2)
	}
}

// TestPoolReusesAfterWatchdogError: a cell that errors cleanly (a
// cycle-limit trip) must return its instance to the pool, and the next
// cell on that shape must compute on it correctly — Reset clears a
// half-finished run completely. (A cell that PANICS, by contrast, never
// returns its instance: compute's put sits after Run returns, so a
// panic unwinds past it and the corrupt machine is garbage-collected.
// The sim-level differential tests cover the reuse semantics;
// the panicking compute seam here bypasses the pool, so that drop
// path is enforced structurally rather than end to end.) Like
// TestPoolReusesInstances it pauses GC and runs on one P, so the reuse
// count depends on the pool alone.
func TestPoolReusesAfterWatchdogError(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRunner()
	r.SetJobs(1)
	spec, err := workload.Build("oltp", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.MaxCycles = 10 // trips immediately
	if _, err := r.RunCell(sim.KindSST, spec, opts); err == nil {
		t.Fatal("want a cycle-limit error")
	}
	opts.MaxCycles = 0
	out, err := r.RunCell(sim.KindSST, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.Run(sim.KindSST, spec.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycles != fresh.Cycles || out.Retired != fresh.Retired || out.Regs != fresh.Regs {
		t.Errorf("run after watchdog error diverges from fresh: pooled %d/%d, fresh %d/%d",
			out.Cycles, out.Retired, fresh.Cycles, fresh.Retired)
	}
	if reused, built := r.PoolStats(); built != 1 || reused != 1 {
		t.Errorf("want the errored instance recycled (1 built, 1 reused), got %d built, %d reused", built, reused)
	}
}
