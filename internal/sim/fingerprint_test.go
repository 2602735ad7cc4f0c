package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/ooo"
)

// goldenDefaultFingerprint is the canonical fingerprint of
// DefaultOptions, frozen. A run cache is only content-addressed if its
// keys are stable across process runs and binary rebuilds — a
// fingerprint that drifts (as the old reflection-based "%+v" encoding
// did when a config struct gained a pointer field, printing its hex
// address) silently turns every cached entry into a miss, or worse,
// keys distinct configurations identically. If a deliberate
// configuration or encoding change lands, update this constant in the
// same commit.
const goldenDefaultFingerprint = "hier{l1i=cache{name=L1I size=32768 ways=4 line=64 hitlat=1 mshrs=4} l1d=cache{name=L1D size=32768 ways=4 line=64 hitlat=2 mshrs=8} l2=cache{name=L2 size=4194304 ways=8 line=64 hitlat=20 mshrs=32} l2banks=8 dram{lat=300 banks=16 busy=24} prefetch=none stride{entries=0 degree=0 minconf=0} dtlb=tlb{entries=0 ways=0 pagebits=0 misslat=0}}|bpred{kind=gshare share=part gshare=14 btb=2048 ras=8 tagetbl=4 tagebits=10 tagetag=9}|inorder{width=2 loads=4 sb=8 taken=2 mispred=8}|ooo{fetch=2 issue=2 commit=2 rob=32 iq=16 lsq=16 spec=true taken=1 mispred=10}|ooo{fetch=4 issue=4 commit=4 rob=128 iq=64 lsq=64 spec=true taken=1 mispred=14}|sst{width=2 replay=2 ckpts=4 dq=64 ssb=32 strand2=true scoutdq=false deferlong=true longmin=10 ckptmiss=true ckptbr=true taken=2 mispred=8 rollback=6 secdelay=false secnofwd=false secssb=false}|run{cycles=0 timeout=0 livelock=0}|faults{}"

func TestFingerprintGolden(t *testing.T) {
	got := DefaultOptions().Fingerprint()
	if got != goldenDefaultFingerprint {
		t.Errorf("DefaultOptions fingerprint drifted:\n got  %s\n want %s", got, goldenDefaultFingerprint)
	}
}

// TestFingerprintNoAddresses is the regression test for the original
// bug: the "%+v" encoding printed the *faults.Plan (and any future
// pointer field) as a hex address, different every process run.
func TestFingerprintNoAddresses(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = faults.Random(7, 200_000)
	opts.Probe = nopProbe{}
	opts.Sink = obs.NewCollector(obs.NewTrace(), obs.NewRegistry())
	opts.Metrics = obs.NewRegistry()
	opts.MaxCycles = 123456
	opts.Timeout = 3 * time.Second
	for _, fp := range []string{opts.Fingerprint(), opts.ShapeFingerprint(), PoolKey(KindSSTBig, opts)} {
		if strings.Contains(fp, "0x") {
			t.Errorf("fingerprint leaks a pointer address: %s", fp)
		}
	}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = faults.Random(7, 200_000)
	if a, b := opts.Fingerprint(), opts.Fingerprint(); a != b {
		t.Errorf("fingerprint unstable across calls:\n %s\n %s", a, b)
	}

	// Observability hooks and NoFastForward must not enter the key: they
	// observe or pace a run without changing its simulated outcome.
	hooked := opts
	hooked.Probe = nopProbe{}
	hooked.Sink = obs.NewCollector(obs.NewTrace(), obs.NewRegistry())
	hooked.Metrics = obs.NewRegistry()
	hooked.NoFastForward = true
	if hooked.Fingerprint() != opts.Fingerprint() {
		t.Error("observability hooks changed the fingerprint")
	}

	// Every simulation-affecting knob must discriminate.
	mutations := map[string]func(*Options){
		"hier": func(o *Options) { o.Hier.L2.SizeBytes *= 2 },
		"pred": func(o *Options) { o.Pred.GshareBits++ },
		// Predictor kind and share mode must discriminate on their own:
		// two runs differing only here may never share a cache or pool
		// entry (a TAGE machine is not a reset gshare machine).
		"predkind":  func(o *Options) { o.Pred.Kind = bpred.TAGE },
		"predshare": func(o *Options) { o.Pred.Share = bpred.ShareHashed },
		"tagetbl":   func(o *Options) { o.Pred.TageTables = 3 },
		"tagebits":  func(o *Options) { o.Pred.TageTableBits++ },
		"tagetag":   func(o *Options) { o.Pred.TageTagBits++ },
		"inorder":   func(o *Options) { o.InOrder.Width++ },
		"ooo":       func(o *Options) { o.OOO.ROBSize++ },
		"ooolg":     func(o *Options) { o.OOOLg.ROBSize++ },
		"sst":       func(o *Options) { o.SST.DQSize++ },
		"secdelay":  func(o *Options) { o.SST.SecureDelayOnMiss = true },
		"secnofwd":  func(o *Options) { o.SST.SecureNoNAForward = true },
		"secssb":    func(o *Options) { o.SST.SecureEagerSSBFlush = true },
		"cycles":    func(o *Options) { o.MaxCycles = 99 },
		"livelock":  func(o *Options) { o.LivelockWindow = 99 },
		"faults":    func(o *Options) { o.Faults = faults.Random(8, 200_000) },
	}
	for name, mutate := range mutations {
		m := opts
		mutate(&m)
		if m.Fingerprint() == opts.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintCoversEveryField pins the field count of Options and
// of every configuration struct it embeds. Adding a field to any of
// them fails this test until the corresponding Fingerprint method (and
// the golden above) is updated — the explicit encodings can no longer
// silently fall out of sync with the structs the way "%+v" silently
// fell into printing addresses.
func TestFingerprintCoversEveryField(t *testing.T) {
	counts := []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"sim.Options", reflect.TypeOf(Options{}), 14},
		{"mem.HierConfig", reflect.TypeOf(mem.HierConfig{}), 8},
		{"mem.CacheConfig", reflect.TypeOf(mem.CacheConfig{}), 6},
		{"mem.DRAMConfig", reflect.TypeOf(mem.DRAMConfig{}), 3},
		{"mem.TLBConfig", reflect.TypeOf(mem.TLBConfig{}), 4},
		{"mem.StridePrefetcherConfig", reflect.TypeOf(mem.StridePrefetcherConfig{}), 3},
		{"bpred.Config", reflect.TypeOf(bpred.Config{}), 8},
		{"inorder.Config", reflect.TypeOf(inorder.Config{}), 5},
		{"ooo.Config", reflect.TypeOf(ooo.Config{}), 9},
		{"core.Config", reflect.TypeOf(core.Config{}), 17},
	}
	for _, c := range counts {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, fingerprint encodes %d: update the Fingerprint method, the golden constant and this count together",
				c.name, got, c.want)
		}
	}
}

// nopProbe satisfies core.Probe for hook-exclusion tests.
type nopProbe struct{}

func (nopProbe) CycleState(now uint64, mode core.Mode, executed, replayed, dq, ssb, ckpts, pend int) {
}
func (nopProbe) Event(now uint64, kind, detail string) {}
