// Package sim ties a program image, a core model and a memory hierarchy
// into a runnable simulation. It is the harness used by the command-line
// tools, the examples, the experiments and the cross-model equivalence
// tests.
package sim

import (
	"context"
	"fmt"
	"time"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/ooo"
)

// Kind selects a core model.
type Kind int

// Core model kinds.
const (
	KindInOrder Kind = iota
	KindOOOSmall
	KindOOOLarge
	KindSST
	KindSSTBig // "certain SST implementations": deeper DQ, more checkpoints
	KindSSTEA  // execute-ahead ablation (no second strand)
	KindScout  // hardware-scout ablation (no deferred queue)
)

// Kinds lists every core model, in presentation order.
var Kinds = []Kind{KindInOrder, KindOOOSmall, KindOOOLarge, KindScout, KindSSTEA, KindSST, KindSSTBig}

func (k Kind) String() string {
	switch k {
	case KindInOrder:
		return "inorder"
	case KindOOOSmall:
		return "ooo-small"
	case KindOOOLarge:
		return "ooo-large"
	case KindSST:
		return "sst"
	case KindSSTBig:
		return "sst-big"
	case KindSSTEA:
		return "sst-ea"
	case KindScout:
		return "scout"
	}
	return "?"
}

// KindByName parses a core-kind name.
func KindByName(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown core kind %q", s)
}

// Options configures a simulation run.
type Options struct {
	Hier    mem.HierConfig
	Pred    bpred.Config
	InOrder inorder.Config
	OOO     ooo.Config // used for KindOOOSmall unless overridden
	OOOLg   ooo.Config
	SST     core.Config
	// MaxCycles bounds the run (0 = DefaultMaxCycles).
	MaxCycles uint64
	// Timeout bounds the run in wall-clock time (0 = none): RunContext
	// arms a context deadline and returns a watchdog error when it
	// expires. Wall clock does not affect the simulated outcome — a
	// timed-out run errors, a finished one is bit-identical regardless.
	Timeout time.Duration
	// LivelockWindow is the no-forward-progress watchdog: a run in which
	// the core executes nothing — no retire, load, store or branch —
	// for this many consecutive cycles errors instead of spinning on to
	// MaxCycles (0 = DefaultLivelockWindow).
	LivelockWindow uint64
	// Faults, when non-nil, is a deterministic fault-injection schedule
	// (see internal/faults): the run replays the plan's perturbations —
	// denied checkpoints, spurious rollbacks, capacity clamps, memory
	// jitter, mispredict storms — exactly, so faulted runs are as
	// reproducible and cacheable as clean ones.
	Faults *faults.Plan
	// Probe, when non-nil, is installed on SST-family cores for
	// pipeline visualization (see core.PipeView).
	Probe core.Probe
	// Sink, when non-nil, observes the run's event stream: it is
	// installed on the core model (every kind) and the memory hierarchy.
	// Use an obs.Collector to feed a Chrome trace and/or registry
	// timelines; remember to Flush it after the run.
	Sink obs.Sink
	// Metrics, when non-nil, receives every model's counters at the end
	// of the run (see PublishObs).
	Metrics *obs.Registry
	// NoFastForward steps the core cycle by cycle even when it supports
	// event-driven stall skipping (see cpu.FastForwarder). Skipping is
	// bit-identical to naive stepping — the differential fuzz in this
	// package proves it — so this knob exists for that proof and for
	// debugging, not for accuracy.
	NoFastForward bool
}

// Fingerprint returns a canonical string covering every simulation-
// affecting field of the options. The observability hooks (Probe, Sink,
// Metrics) are excluded: they observe a run without changing its
// timing. Two Options with equal fingerprints produce identical
// outcomes on the same program, so harnesses use the fingerprint as a
// run-cache key.
// The encoding is explicit, field by field (each config contributes its
// own Fingerprint method): no pointer addresses, no reflection-derived
// struct dumps, so the string is stable across process runs and across
// refactors that merely reorder fields. The observability hooks (Probe,
// Sink, Metrics) never appear: they observe a run without changing its
// timing. NoFastForward is likewise excluded — fast-forwarding changes
// wall-clock speed, never the outcome, so two runs differing only in it
// share a cache entry.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%s|run{cycles=%d timeout=%d livelock=%d}|faults{%s}",
		o.ShapeFingerprint(), o.MaxCycles, int64(o.Timeout), o.LivelockWindow,
		o.Faults.String())
}

// DefaultMaxCycles bounds runaway simulations.
const DefaultMaxCycles = 2_000_000_000

// DefaultLivelockWindow is the default no-activity watchdog window.
// Progress is counted as any executed work — retires, loads, stores,
// branches (see cpu.RunConfig) — so even a pointer chase that defers
// its entire run before one bulk commit registers activity every memory
// round trip. The longest legitimate silent stretch is a single memory
// round trip (hundreds of cycles); two million is orders of magnitude
// above it and still fails a wedged run a thousand times sooner than
// DefaultMaxCycles would.
const DefaultLivelockWindow = 2_000_000

// CycleLimit returns the effective cycle bound of the options.
func (o Options) CycleLimit() uint64 {
	if o.MaxCycles > 0 {
		return o.MaxCycles
	}
	return DefaultMaxCycles
}

// livelockWindow returns the effective no-retire watchdog window.
func (o Options) livelockWindow() uint64 {
	if o.LivelockWindow > 0 {
		return o.LivelockWindow
	}
	return DefaultLivelockWindow
}

// DefaultOptions returns the standard machine configurations used
// throughout the reproduction (paper Table 1).
func DefaultOptions() Options {
	return Options{
		Hier:    mem.DefaultHierConfig(),
		Pred:    bpred.DefaultConfig(),
		InOrder: inorder.DefaultConfig(),
		OOO:     ooo.SmallConfig(),
		OOOLg:   ooo.LargeConfig(),
		SST:     core.DefaultConfig(),
	}
}

// Outcome summarizes one finished run.
type Outcome struct {
	Kind    Kind
	Cycles  uint64
	Retired uint64
	Core    cpu.Core // the core model, for detailed stats
	Mach    *cpu.Machine
	Mem     *mem.Sparse
	Regs    [isa.NumRegs]int64
	// Obs is the run's metrics registry (Options.Metrics), when one was
	// attached; reports embed its snapshot.
	Obs *obs.Registry
	// Cell, when non-nil, marks a reconstructed remote-cell view: the
	// outcome was computed on another rocksimd shard and only its
	// statistics snapshot crossed the wire (see CellStats). Core, Mach
	// and Mem are nil on such a view; the table-assembly accessors
	// (BaseStats, SSTStats, L1DStats, L2Stats, DTLBStats) answer from
	// the snapshot instead.
	Cell *CellStats
}

// IPC returns retired instructions per cycle.
func (o Outcome) IPC() float64 {
	if o.Cycles == 0 {
		return 0
	}
	return float64(o.Retired) / float64(o.Cycles)
}

// NewCore builds a core of the given kind over machine m, installing
// the options' observability hooks and fault injector. An unknown kind
// returns an error (a caller-supplied kind must not crash a harness).
func NewCore(k Kind, m *cpu.Machine, opts Options, entry uint64) (cpu.Core, error) {
	if err := opts.Validate(k); err != nil {
		return nil, err
	}
	c, err := newCore(k, m, opts, entry)
	if err != nil {
		return nil, err
	}
	switch cc := c.(type) {
	case *core.Core:
		var probe obs.Sink
		if opts.Probe != nil {
			probe = core.ProbeSink(opts.Probe)
		}
		if s := obs.Tee(probe, opts.Sink); s != nil {
			cc.SetSink(s)
		}
		if opts.Faults != nil {
			cc.SetFaults(opts.Faults.New(opts.Sink))
		}
	case *inorder.Core:
		cc.SetSink(opts.Sink)
	case *ooo.Core:
		cc.SetSink(opts.Sink)
	}
	return c, nil
}

func newCore(k Kind, m *cpu.Machine, opts Options, entry uint64) (cpu.Core, error) {
	if cfg, ok := sstConfig(k, opts); ok {
		return core.New(m, cfg, entry), nil
	}
	switch k {
	case KindInOrder:
		return inorder.New(m, opts.InOrder, entry), nil
	case KindOOOSmall:
		return ooo.New(m, opts.OOO, entry), nil
	case KindOOOLarge:
		return ooo.New(m, opts.OOOLg, entry), nil
	}
	return nil, fmt.Errorf("sim: bad core kind %d", k)
}

// sstConfig derives the core configuration an SST-family kind runs from
// the options; ok is false for the other kinds.
func sstConfig(k Kind, opts Options) (cfg core.Config, ok bool) {
	switch k {
	case KindSST:
		return opts.SST, true
	case KindSSTBig:
		cfg = opts.SST
		cfg.DQSize = 2 * opts.SST.DQSize
		cfg.Checkpoints = 2 * opts.SST.Checkpoints
		cfg.SSBSize = 2 * opts.SST.SSBSize
		return cfg, true
	case KindSSTEA:
		cfg = opts.SST
		cfg.SecondStrand = false
		return cfg, true
	case KindScout:
		cfg = core.ScoutConfig()
		cfg.Width = opts.SST.Width
		cfg.TakenPenalty = opts.SST.TakenPenalty
		cfg.MispredictPenalty = opts.SST.MispredictPenalty
		cfg.RollbackPenalty = opts.SST.RollbackPenalty
		cfg.SecureDelayOnMiss = opts.SST.SecureDelayOnMiss
		cfg.SecureNoNAForward = opts.SST.SecureNoNAForward
		cfg.SecureEagerSSBFlush = opts.SST.SecureEagerSSBFlush
		return cfg, true
	}
	return cfg, false
}

// Validate reports whether kind k can be built from the options: the
// SST-family kinds check the core configuration they derive (sst-big's
// doubled sizes included) against core.Config.Validate. NewInstance
// runs it, so the CLI, runner, daemon and fleet share one check.
func (o Options) Validate(k Kind) error {
	if cfg, ok := sstConfig(k, o); ok {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sim: %v: %w", k, err)
		}
	}
	return nil
}

// Run loads the program into a fresh machine, executes it to completion
// on the selected core model, and returns the outcome.
func Run(k Kind, prog *asm.Program, opts Options) (Outcome, error) {
	return RunContext(context.Background(), k, prog, opts)
}

// RunContext is Run under a caller context: the run aborts with a
// watchdog error when ctx is cancelled, when Options.Timeout expires,
// when the cycle budget runs out, or when the livelock detector sees no
// retirement for a whole window. Fault plans (Options.Faults) are
// installed on both the core and the memory hierarchy.
func RunContext(ctx context.Context, k Kind, prog *asm.Program, opts Options) (Outcome, error) {
	// A fresh run is a pooled run with pool size zero: build an Instance
	// and drive the exact execution path a reused one takes (runLive),
	// so the fresh and pooled flavors cannot drift. The returned outcome
	// keeps the live structures — callers of Run/RunContext own them.
	inst, err := NewInstance(k, opts)
	if err != nil {
		return Outcome{}, err
	}
	out, err := inst.runLive(ctx, prog, opts)
	if err != nil {
		return out, err
	}
	out.Obs = opts.Metrics
	out.PublishObs(opts.Metrics)
	return out, nil
}

// PublishObs publishes the finished run's counters — the core model's
// and the memory hierarchy's — into r. No-op when r is nil. sim.Run
// calls this automatically when Options.Metrics is set.
func (o Outcome) PublishObs(r *obs.Registry) {
	if r == nil || o.Core == nil {
		return
	}
	switch c := o.Core.(type) {
	case *core.Core:
		c.PublishObs(r)
	case *inorder.Core:
		c.Stats().PublishObs(r)
	case *ooo.Core:
		c.Stats().PublishObs(r)
	default:
		o.Core.Base().PublishObs(r)
	}
	if o.Mach != nil {
		o.Mach.Hier.PublishObs(r)
		if o.Mach.Pred != nil {
			o.Mach.Pred.Stats.PublishObs(r)
		}
	}
}

func coreRegs(c cpu.Core) [isa.NumRegs]int64 {
	switch cc := c.(type) {
	case *inorder.Core:
		return cc.Regs()
	case *ooo.Core:
		return cc.Regs()
	case *core.Core:
		return cc.Regs()
	}
	return [isa.NumRegs]int64{}
}

// RunEmulator executes the program on the golden functional model and
// returns the final emulator state and memory image.
func RunEmulator(prog *asm.Program, maxInsts uint64) (*isa.Emulator, *mem.Sparse, error) {
	m := mem.NewSparse()
	prog.Load(m)
	e := isa.NewEmulator(prog.Entry, m)
	if err := e.Run(maxInsts); err != nil {
		return e, m, err
	}
	return e, m, nil
}
