package sim

import (
	"context"
	"fmt"

	"rocksim/internal/asm"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/ooo"
)

// Instance is a fully constructed simulator — functional memory, timing
// hierarchy, branch predictor and core model — that can be reset and
// reused across runs, eliminating the per-run construction cost (~8.6k
// allocations) that dominates short, service-shaped workloads. An
// Instance is built for one (kind, options-shape) pair: the
// construction-affecting options (Hier, Pred and the core configs —
// see Options.ShapeFingerprint) are fixed at NewInstance; the per-run
// options (program, watchdogs, faults, observability hooks) are applied
// by each Run.
//
// Run returns a detached outcome: the same concrete core and hierarchy
// types carrying deep-copied statistics, safe to cache and consume
// indefinitely while the live structures are reset for the next run.
// The pooled-vs-fresh differential fuzz in this package proves a reused
// Instance is byte-identical to a fresh construction — outcome,
// metrics JSON and Chrome trace — clean and under fault plans.
//
// An Instance is not safe for concurrent use; the pool in
// internal/experiments hands each one to a single run at a time.
type Instance struct {
	kind Kind
	mem  *mem.Sparse
	mach *cpu.Machine
	core cpu.Core
}

// NewInstance builds a reusable simulator for one core kind and one
// options shape. Only the construction-affecting option fields are
// consulted (see Options.ShapeFingerprint); per-run fields are ignored
// here and honored by Run.
func NewInstance(k Kind, opts Options) (*Instance, error) {
	if err := opts.Validate(k); err != nil {
		return nil, err
	}
	m := mem.NewSparse()
	mach, err := cpu.NewMachine(m, opts.Hier, opts.Pred)
	if err != nil {
		return nil, err
	}
	c, err := newCore(k, mach, opts, 0)
	if err != nil {
		return nil, err
	}
	return &Instance{kind: k, mem: m, mach: mach, core: c}, nil
}

// Kind returns the core kind the instance simulates.
func (in *Instance) Kind() Kind { return in.kind }

// Mem returns the instance's live functional memory (the image of the
// most recent run). The differential tests use it to compare a pooled
// run's final memory against a fresh run's.
func (in *Instance) Mem() *mem.Sparse { return in.mem }

// reset returns every layer to its freshly constructed state, executing
// from entry: machine first (memory, hierarchy, predictor), then the
// core on top (which may re-register hierarchy listeners).
func (in *Instance) reset(entry uint64) {
	in.mach.Reset()
	switch cc := in.core.(type) {
	case *core.Core:
		cc.Reset(entry)
	case *inorder.Core:
		cc.Reset(entry)
	case *ooo.Core:
		cc.Reset(entry)
	}
}

// installHooks wires the per-run observability sinks onto the freshly
// reset core, exactly as NewCore does at construction.
func (in *Instance) installHooks(opts Options) {
	switch cc := in.core.(type) {
	case *core.Core:
		var probe obs.Sink
		if opts.Probe != nil {
			probe = core.ProbeSink(opts.Probe)
		}
		if s := obs.Tee(probe, opts.Sink); s != nil {
			cc.SetSink(s)
		}
	case *inorder.Core:
		cc.SetSink(opts.Sink)
	case *ooo.Core:
		cc.SetSink(opts.Sink)
	}
}

// runLive resets the instance, loads the program and executes it to
// completion, returning an outcome whose Core/Mach/Mem point at the
// instance's live structures. It is the single execution path shared by
// the fresh RunContext and the pooled Instance.Run, so the two cannot
// drift. The caller publishes metrics and (for pooling) detaches.
func (in *Instance) runLive(ctx context.Context, prog *asm.Program, opts Options) (Outcome, error) {
	ctx, span := obs.StartSpan(ctx, "sim-run")
	span.SetAttr("kind", in.kind.String())
	span.SetAttr("program", prog.Desc())
	defer span.End()
	in.reset(prog.Entry)
	prog.Load(in.mem)
	for _, s := range prog.Secrets {
		in.mach.Hier.SetSecret(s.Addr, s.Len)
	}
	in.mach.Hier.SetSink(opts.Sink)
	in.installHooks(opts)
	var inj *faults.Injector
	if opts.Faults != nil {
		// One injector serves both layers so one-shot events and counts
		// are shared.
		inj = opts.Faults.New(opts.Sink)
		if cc, ok := in.core.(*core.Core); ok {
			cc.SetFaults(inj)
		}
		in.mach.Hier.SetFaults(inj)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	runErr := cpu.RunCtx(ctx, in.core, cpu.RunConfig{
		MaxCycles:          opts.CycleLimit(),
		LivelockWindow:     opts.livelockWindow(),
		DisableFastForward: opts.NoFastForward,
	})
	inj.PublishObs(opts.Metrics)
	if runErr != nil {
		span.SetAttr("err", runErr.Error())
		return Outcome{}, fmt.Errorf("sim: %v on %s: %w", in.kind, prog.Desc(), runErr)
	}
	span.SetAttr("cycles", fmt.Sprint(in.core.Cycle()))
	span.SetAttr("retired", fmt.Sprint(in.core.Retired()))
	out := Outcome{
		Kind:    in.kind,
		Cycles:  in.core.Cycle(),
		Retired: in.core.Retired(),
		Core:    in.core,
		Mach:    in.mach,
		Mem:     in.mem,
	}
	out.Regs = coreRegs(in.core)
	return out, nil
}

// Run executes prog on the pooled instance and returns a detached
// outcome: Core and Mach are frozen stats-only copies (same concrete
// types, deep-copied counters and histograms) safe to cache and read
// indefinitely; Mem is nil — a detached outcome carries no memory
// image, since the live one is about to be reused. Metrics are
// published from the detached copies, so a registry snapshot taken long
// after the run still reflects exactly this run.
//
// A run that errors (watchdog trip, cancellation) leaves the instance
// reusable: the next Run resets everything. A run that panics may leave
// it corrupt — callers must drop the instance instead of reusing it.
func (in *Instance) Run(ctx context.Context, prog *asm.Program, opts Options) (Outcome, error) {
	out, err := in.runLive(ctx, prog, opts)
	if err != nil {
		return out, err
	}
	out.Core = detachCore(in.core)
	out.Mach = &cpu.Machine{
		Hier:     in.mach.Hier.Detach(),
		Pred:     in.mach.Pred.Detach(),
		CoreID:   in.mach.CoreID,
		Coherent: in.mach.Coherent,
	}
	out.Mem = nil
	out.Obs = opts.Metrics
	out.PublishObs(opts.Metrics)
	return out, nil
}

// detachCore freezes a core model into a stats-only carrier of the same
// concrete type (see each model's Detach).
func detachCore(c cpu.Core) cpu.Core {
	switch cc := c.(type) {
	case *core.Core:
		return cc.Detach()
	case *inorder.Core:
		return cc.Detach()
	case *ooo.Core:
		return cc.Detach()
	}
	return c
}

// ShapeFingerprint returns the canonical encoding of the construction-
// affecting options only — the hierarchy, predictor and core
// configurations. Two Options with equal shape fingerprints build
// interchangeable machines (for a given kind), differing at most in
// per-run fields (program, watchdog bounds, faults, observability), so
// harnesses use (kind, shape) as the simulator-pool key. Compare
// Fingerprint, which additionally covers the per-run simulation-
// affecting fields and keys the run cache.
func (o Options) ShapeFingerprint() string {
	return o.Hier.Fingerprint() + "|" + o.Pred.Fingerprint() + "|" +
		o.InOrder.Fingerprint() + "|" + o.OOO.Fingerprint() + "|" +
		o.OOOLg.Fingerprint() + "|" + o.SST.Fingerprint()
}

// PoolKey returns the simulator-pool key for a (kind, options) pair.
func PoolKey(k Kind, o Options) string {
	return k.String() + "|" + o.ShapeFingerprint()
}
