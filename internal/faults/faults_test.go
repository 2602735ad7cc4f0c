package faults

import (
	"testing"

	"rocksim/internal/obs"
)

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"seed=7",
		"seed=7;ckpt-deny@100-200",
		"seed=-3;rollback@500",
		"seed=0;dq-clamp@100-:4",
		"seed=1;mem-jitter@0-5000:32;mispredict@10-90:2",
		"seed=9;skip-restore@0-;ssb-clamp@5-25:1",
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := p.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if p2.String() != p.String() {
			t.Errorf("unstable canonical form %q vs %q", p2.String(), p.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"bogus@5",            // unknown kind
		"ckpt-deny",          // no window
		"ckpt-deny@x",        // bad cycle
		"ckpt-deny@9-3",      // empty window
		"seed=zzz",           // bad seed
		"mem-jitter@1-2:huh", // bad arg
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	for _, src := range []string{"", "   "} {
		p, err := Parse(src)
		if err != nil || p != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", src, p, err)
		}
	}
}

// TestNilSafety: a nil plan yields a nil injector whose every method
// returns the no-fault answer.
func TestNilSafety(t *testing.T) {
	var p *Plan
	in := p.New(nil)
	if in != nil {
		t.Fatalf("nil plan built injector %v", in)
	}
	if in.DenyCheckpoint(5) || in.WantSpuriousRollback(5) || in.FlipPrediction(5) || in.SkipRestoreRegs(5) {
		t.Error("nil injector injected a fault")
	}
	if got := in.ClampDQ(5, 64); got != 64 {
		t.Errorf("nil ClampDQ = %d", got)
	}
	if got := in.ClampSSB(5, 32); got != 32 {
		t.Errorf("nil ClampSSB = %d", got)
	}
	if got := in.MemDelay(5, 0x100); got != 0 {
		t.Errorf("nil MemDelay = %d", got)
	}
	in.RollbackApplied(5)
	in.PublishObs(obs.NewRegistry())
	if c := in.Counts(); c != ([NumKinds]uint64{}) {
		t.Errorf("nil Counts = %v", c)
	}
	if p.String() != "" {
		t.Errorf("nil plan String = %q", p.String())
	}
}

func TestWindowing(t *testing.T) {
	p := &Plan{Seed: 1, Events: []Event{
		{Kind: CkptDeny, From: 100, To: 200},
		{Kind: DQClamp, From: 50, To: 0, Arg: 4}, // open-ended
	}}
	in := p.New(nil)
	if in.DenyCheckpoint(99) {
		t.Error("deny before window")
	}
	if !in.DenyCheckpoint(100) || !in.DenyCheckpoint(199) {
		t.Error("no deny inside window")
	}
	if in.DenyCheckpoint(200) {
		t.Error("deny at exclusive end")
	}
	if got := in.ClampDQ(49, 64); got != 64 {
		t.Errorf("clamp before window: %d", got)
	}
	if got := in.ClampDQ(1<<40, 64); got != 4 {
		t.Errorf("open-ended clamp: %d", got)
	}
	if got := in.ClampDQ(60, 2); got != 2 {
		t.Errorf("clamp must never raise capacity: %d", got)
	}
}

func TestSpuriousRollbackOneShot(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Rollback, From: 500}}}
	in := p.New(nil)
	if in.WantSpuriousRollback(499) {
		t.Error("rollback due early")
	}
	// Due but deferred: stays armed until applied.
	if !in.WantSpuriousRollback(500) || !in.WantSpuriousRollback(600) {
		t.Error("rollback not due")
	}
	in.RollbackApplied(600)
	if in.WantSpuriousRollback(601) {
		t.Error("one-shot fired twice")
	}
	if got := in.Counts()[Rollback]; got != 1 {
		t.Errorf("rollback count = %d", got)
	}
}

func TestMemDelayDeterministicAndBounded(t *testing.T) {
	p := &Plan{Seed: 42, Events: []Event{{Kind: MemJitter, From: 0, To: 1000, Arg: 16}}}
	a, b := p.New(nil), p.New(nil)
	sawNonZero := false
	for now := uint64(0); now < 1000; now += 7 {
		da := a.MemDelay(now, now*64)
		db := b.MemDelay(now, now*64)
		if da != db {
			t.Fatalf("nondeterministic delay at %d: %d vs %d", now, da, db)
		}
		if da > 16 {
			t.Fatalf("delay %d exceeds Arg", da)
		}
		if da > 0 {
			sawNonZero = true
		}
	}
	if !sawNonZero {
		t.Error("jitter never injected")
	}
}

func TestFlipPredictionDeterministicPeriod(t *testing.T) {
	p := &Plan{Seed: 3, Events: []Event{{Kind: MispredictStorm, From: 0, To: 0, Arg: 2}}}
	a, b := p.New(nil), p.New(nil)
	flips := 0
	const n = 2000
	for i := 0; i < n; i++ {
		fa := a.FlipPrediction(uint64(i))
		if fb := b.FlipPrediction(uint64(i)); fa != fb {
			t.Fatalf("nondeterministic flip at %d", i)
		}
		if fa {
			flips++
		}
	}
	// Roughly one in Arg=2; allow a wide band.
	if flips < n/4 || flips > 3*n/4 {
		t.Errorf("flip rate %d/%d far from 1/2", flips, n)
	}
}

func TestRandomPlansDeterministicAndBenign(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p1, p2 := Random(seed, 10000), Random(seed, 10000)
		if p1.String() != p2.String() {
			t.Fatalf("seed %d: nondeterministic plan", seed)
		}
		if len(p1.Events) == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
		for _, e := range p1.Events {
			if e.Kind == SkipRestore {
				t.Fatalf("seed %d: random plan contains skip-restore", seed)
			}
			if e.Kind != Rollback && e.To == 0 {
				t.Fatalf("seed %d: random windowed event %v is open-ended", seed, e)
			}
		}
		// The canonical form must survive a round trip (it keys run caches).
		rp, err := Parse(p1.String())
		if err != nil || rp.String() != p1.String() {
			t.Fatalf("seed %d: round trip failed: %v", seed, err)
		}
	}
}

// TestObsEventsCapped: sink events are bounded per kind, counters are not.
func TestObsEventsCapped(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: CkptDeny, From: 0, To: 0}}}
	var rec eventRecorder
	in := p.New(&rec)
	for now := uint64(0); now < 100; now++ {
		in.DenyCheckpoint(now)
	}
	if got := in.Counts()[CkptDeny]; got != 100 {
		t.Errorf("count = %d", got)
	}
	if len(rec.events) != eventLogMax {
		t.Errorf("sink events = %d, want %d", len(rec.events), eventLogMax)
	}
	reg := obs.NewRegistry()
	in.PublishObs(reg)
	if got := reg.Counter("faults/injected/ckpt-deny").Value(); got != 100 {
		t.Errorf("published counter = %d", got)
	}
}

// eventRecorder is a minimal obs.Sink capturing Event calls.
type eventRecorder struct {
	events []string
}

func (r *eventRecorder) Attach(model string, occNames []string)                     {}
func (r *eventRecorder) CycleState(now uint64, mode string, ex, rep int, occ []int) {}
func (r *eventRecorder) SpanBegin(now uint64, cat, name string, id uint64)          {}
func (r *eventRecorder) SpanEnd(now uint64, cat string, id uint64)                  {}
func (r *eventRecorder) Span(start, end uint64, cat, name string)                   {}
func (r *eventRecorder) Event(now uint64, cat, name, detail string) {
	r.events = append(r.events, cat+"/"+name)
}

// TestParseSpec: a -faults spec is either a literal plan, which
// round-trips through String, or random:SEED, which is exactly
// Random(SEED, 1_000_000); a malformed seed is an error.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // canonical plan; "" means no plan
		err  bool
	}{
		{spec: "seed=1;mem-jitter@0-5000:32;mispredict@10-90:2", want: "seed=1;mem-jitter@0-5000:32;mispredict@10-90:2"},
		{spec: "random:7", want: Random(7, 1_000_000).String()},
		{spec: "random:-3", want: Random(-3, 1_000_000).String()},
		{spec: ""},
		{spec: "random:seven", err: true},
		{spec: "random:", err: true},
		{spec: "random:7x", err: true},
		{spec: "bogus@5", err: true},
	} {
		p, err := ParseSpec(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted: %v", tc.spec, p)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if got := p.String(); got != tc.want {
			t.Errorf("ParseSpec(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}
