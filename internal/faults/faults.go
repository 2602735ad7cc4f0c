// Package faults is a deterministic, seed-driven fault injector for the
// simulated machines. A Plan is an immutable schedule of perturbations —
// denied checkpoint allocations, spurious rollbacks, deferred-queue and
// store-buffer capacity clamps, jittered memory timing, mispredict
// storms — that the core and memory models consult at fixed points in
// their cycle loops. Every decision is a pure function of the plan's
// seed and the query's coordinates (cycle, address, call count), so a
// run under a plan is exactly reproducible and cacheable like any other.
//
// The point of the package is the paper's invisibility invariant: SST
// speculation must produce bit-identical architectural state no matter
// which microarchitectural misfortunes strike mid-flight. Every fault
// kind except SkipRestore is architecture-preserving by construction —
// it may change *when* things happen, never *what* the program computes
// — and internal/sim's fault-fuzz oracle enforces exactly that.
// SkipRestore deliberately breaks the rollback path so the oracle's
// teeth can be tested.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"rocksim/internal/obs"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// Fault kinds. All are architecture-preserving except SkipRestore.
const (
	// CkptDeny makes checkpoint allocation fail while active: the core
	// behaves as if every checkpoint register were occupied (stall-on-use
	// in normal mode, merged epochs while speculating).
	CkptDeny Kind = iota
	// Rollback forces one spurious rollback to the youngest live
	// checkpoint at (or as soon as possible after) cycle From — the model
	// of a transient fault that squashes in-flight speculation.
	Rollback
	// DQClamp clamps the effective Deferred Queue capacity to Arg while
	// active.
	DQClamp
	// SSBClamp clamps the effective speculative store buffer capacity to
	// Arg while active.
	SSBClamp
	// MemJitter delays memory-hierarchy accesses by a deterministic
	// pseudo-random 0..Arg extra cycles while active.
	MemJitter
	// MispredictStorm flips roughly one in Arg branch predictions while
	// active (Arg=1 flips every one).
	MispredictStorm
	// SkipRestore makes rollback skip the register-file restore while
	// active. This is an intentionally architectural fault: it exists so
	// tests can prove the invisibility oracle detects a broken rollback.
	SkipRestore
	NumKinds
)

var kindNames = [NumKinds]string{
	CkptDeny:        "ckpt-deny",
	Rollback:        "rollback",
	DQClamp:         "dq-clamp",
	SSBClamp:        "ssb-clamp",
	MemJitter:       "mem-jitter",
	MispredictStorm: "mispredict",
	SkipRestore:     "skip-restore",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindByName parses a fault-kind name.
func KindByName(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}

// Event is one scheduled perturbation. Windowed kinds are active over
// cycles [From, To) (To=0 means open-ended); the one-shot Rollback kind
// fires once at the first opportunity at or after From and ignores To.
type Event struct {
	Kind Kind
	From uint64
	To   uint64
	// Arg is the kind-specific magnitude: clamp capacity (DQClamp,
	// SSBClamp), maximum extra delay in cycles (MemJitter), or flip
	// period (MispredictStorm; 0 is treated as 1 = every prediction).
	Arg uint64
}

// active reports whether a windowed event covers cycle now.
func (e Event) active(now uint64) bool {
	return now >= e.From && (e.To == 0 || now < e.To)
}

// String renders the event in the plan grammar: name@From[-To][:Arg].
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.Kind.String())
	sb.WriteByte('@')
	sb.WriteString(strconv.FormatUint(e.From, 10))
	if e.Kind != Rollback {
		sb.WriteByte('-')
		if e.To != 0 {
			sb.WriteString(strconv.FormatUint(e.To, 10))
		}
	}
	if e.Arg != 0 {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(e.Arg, 10))
	}
	return sb.String()
}

// Plan is an immutable fault schedule. The zero Plan (and a nil *Plan)
// injects nothing. Seed drives every pseudo-random decision (memory
// jitter, storm flips), so two runs of one plan are identical.
type Plan struct {
	Seed   int64
	Events []Event
}

// String renders the plan in the canonical grammar accepted by Parse:
//
//	seed=7;ckpt-deny@100-200;rollback@500;mem-jitter@0-:16
//
// Options fingerprints embed this string, so it must (and does) cover
// every behavior-affecting field.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Events)+1)
	parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// Parse decodes the plan grammar produced by String: semicolon-separated
// elements, an optional leading "seed=N", then events of the form
// name@From (one-shot), name@From-To or name@From- (window; empty To is
// open-ended), each optionally suffixed ":Arg". An empty string yields
// nil (no plan).
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			p.Seed = seed
			continue
		}
		name, spec, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("faults: bad event %q (want name@cycles)", part)
		}
		k, err := KindByName(name)
		if err != nil {
			return nil, err
		}
		e := Event{Kind: k}
		if window, arg, ok := strings.Cut(spec, ":"); ok {
			if e.Arg, err = strconv.ParseUint(arg, 10, 64); err != nil {
				return nil, fmt.Errorf("faults: bad arg in %q: %v", part, err)
			}
			spec = window
		}
		if from, to, ok := strings.Cut(spec, "-"); ok {
			if e.From, err = strconv.ParseUint(from, 10, 64); err != nil {
				return nil, fmt.Errorf("faults: bad window in %q: %v", part, err)
			}
			if to != "" {
				if e.To, err = strconv.ParseUint(to, 10, 64); err != nil {
					return nil, fmt.Errorf("faults: bad window in %q: %v", part, err)
				}
				if e.To <= e.From {
					return nil, fmt.Errorf("faults: empty window in %q", part)
				}
			}
		} else if e.From, err = strconv.ParseUint(spec, 10, 64); err != nil {
			return nil, fmt.Errorf("faults: bad cycle in %q: %v", part, err)
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

// ParseSpec decodes a fault plan as the -faults flags and the service's
// "faults" request field accept it: the plan grammar of Parse, or
// "random:SEED" for a generated benign plan. Its horizon of a million
// cycles keeps the generated events inside the span a typical run
// actually executes.
func ParseSpec(s string) (*Plan, error) {
	if rest, ok := strings.CutPrefix(s, "random:"); ok {
		seed, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad random seed %q: %v", rest, err)
		}
		return Random(seed, 1_000_000), nil
	}
	return Parse(s)
}

// Random generates a benign fault plan from seed: one to five events of
// the architecture-preserving kinds, scheduled within the first horizon
// cycles. SkipRestore is never generated — random plans feed the
// invisibility oracle, which must pass on them. Window ends are always
// bounded so a clamp or storm cannot outlive the run's useful work.
func Random(seed int64, horizon uint64) *Plan {
	if horizon < 16 {
		horizon = 16
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	n := 1 + rng.Intn(5)
	kinds := []Kind{CkptDeny, Rollback, DQClamp, SSBClamp, MemJitter, MispredictStorm}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		from := uint64(rng.Int63n(int64(horizon)))
		length := 1 + uint64(rng.Int63n(int64(horizon/2+1)))
		e := Event{Kind: k, From: from, To: from + length}
		switch k {
		case Rollback:
			e.To = 0
		case DQClamp, SSBClamp:
			e.Arg = uint64(rng.Intn(8))
		case MemJitter:
			e.Arg = 1 + uint64(rng.Intn(64))
		case MispredictStorm:
			e.Arg = 1 + uint64(rng.Intn(4))
		}
		p.Events = append(p.Events, e)
	}
	return p
}

// eventLogMax bounds per-kind sink events so a long jitter window cannot
// flood a trace; injections beyond it are still counted.
const eventLogMax = 8

// Injector is the per-run mutable state of a plan: which one-shots have
// fired, per-kind injection counts, and the sink receiving "fault"
// events. Build one per simulated core (or hierarchy) with Plan.New.
// All methods are nil-receiver safe and return the no-fault answer, so
// models hold a possibly-nil *Injector and call it unconditionally.
type Injector struct {
	plan    *Plan
	sink    obs.Sink
	fired   []bool
	counts  [NumKinds]uint64
	queries uint64 // monotonically numbers storm-window prediction queries
}

// New builds a fresh injector for one run. A nil plan returns a nil
// injector, which is valid and injects nothing.
func (p *Plan) New(sink obs.Sink) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: p, sink: sink, fired: make([]bool, len(p.Events))}
}

// record counts one injection and emits a sink event for the first few.
func (in *Injector) record(k Kind, now uint64, detail string) {
	in.counts[k]++
	if in.sink != nil && in.counts[k] <= eventLogMax {
		in.sink.Event(now, "fault", k.String(), detail)
	}
}

// Counts returns per-kind injection counts so far.
func (in *Injector) Counts() [NumKinds]uint64 {
	if in == nil {
		return [NumKinds]uint64{}
	}
	return in.counts
}

// PublishObs exports the per-kind injection counters ("faults/injected/
// <kind>") into r. No-op when either side is nil.
func (in *Injector) PublishObs(r *obs.Registry) {
	if in == nil || r == nil {
		return
	}
	for k := Kind(0); k < NumKinds; k++ {
		if in.counts[k] > 0 {
			r.Counter("faults/injected/" + k.String()).Set(in.counts[k])
		}
	}
}

// Mutations returns a value that changes whenever any injector state
// mutates (injection counts, storm-query numbering, one-shot firings).
// The fast-forward layer snapshots it around a candidate stall cycle: a
// cycle whose injector queries left a trace is not a pure stall and must
// never be skipped, since naive stepping would repeat those queries
// every cycle.
func (in *Injector) Mutations() uint64 {
	if in == nil {
		return 0
	}
	var sum uint64
	for _, c := range in.counts {
		sum += c
	}
	return sum + in.queries
}

// NextChange returns the earliest cycle strictly after now at which the
// plan's behavior can change — a window opening or closing, or an
// unfired one-shot rollback coming due (0 = never). Clock jumps are
// bounded by it: inside one plan regime a pure stall stays pure, but the
// cycle a window opens must be re-stepped naively.
func (in *Injector) NextChange(now uint64) uint64 {
	if in == nil {
		return 0
	}
	var next uint64
	bound := func(c uint64) {
		if c > now && (next == 0 || c < next) {
			next = c
		}
	}
	for i, e := range in.plan.Events {
		if e.Kind == Rollback {
			if !in.fired[i] {
				bound(e.From)
			}
			continue
		}
		bound(e.From)
		bound(e.To)
	}
	return next
}

// DenyCheckpoint reports whether checkpoint allocation must fail at
// cycle now.
func (in *Injector) DenyCheckpoint(now uint64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.plan.Events {
		if e.Kind == CkptDeny && e.active(now) {
			in.record(CkptDeny, now, "checkpoint allocation denied")
			return true
		}
	}
	return false
}

// WantSpuriousRollback reports whether a scheduled spurious rollback is
// due at cycle now. The core applies it only when the pipeline can roll
// back (a live checkpoint, no open transaction) and then confirms with
// RollbackApplied; until confirmed the event stays armed, so a rollback
// scheduled during a non-speculative stretch fires at the next epoch.
func (in *Injector) WantSpuriousRollback(now uint64) bool {
	if in == nil {
		return false
	}
	for i, e := range in.plan.Events {
		if e.Kind == Rollback && !in.fired[i] && now >= e.From {
			return true
		}
	}
	return false
}

// RollbackApplied consumes the oldest due spurious-rollback event.
func (in *Injector) RollbackApplied(now uint64) {
	if in == nil {
		return
	}
	for i, e := range in.plan.Events {
		if e.Kind == Rollback && !in.fired[i] && now >= e.From {
			in.fired[i] = true
			in.record(Rollback, now, "forced rollback to youngest checkpoint")
			return
		}
	}
}

// clamp returns capacity reduced by the active events of kind k.
func (in *Injector) clamp(k Kind, now uint64, capacity int) int {
	if in == nil {
		return capacity
	}
	clamped := false
	for _, e := range in.plan.Events {
		if e.Kind == k && e.active(now) && int(e.Arg) < capacity {
			capacity = int(e.Arg)
			clamped = true
		}
	}
	if clamped {
		in.record(k, now, fmt.Sprintf("capacity clamped to %d", capacity))
	}
	return capacity
}

// ClampDQ returns the effective Deferred Queue capacity at cycle now.
func (in *Injector) ClampDQ(now uint64, capacity int) int {
	return in.clamp(DQClamp, now, capacity)
}

// ClampSSB returns the effective store-buffer capacity at cycle now.
func (in *Injector) ClampSSB(now uint64, capacity int) int {
	return in.clamp(SSBClamp, now, capacity)
}

// MemDelay returns the extra cycles to add to a memory access issued at
// cycle now for addr. Deterministic in (seed, now, addr).
func (in *Injector) MemDelay(now, addr uint64) uint64 {
	if in == nil {
		return 0
	}
	var delay uint64
	for _, e := range in.plan.Events {
		if e.Kind == MemJitter && e.active(now) && e.Arg > 0 {
			delay += mix(uint64(in.plan.Seed), now, addr) % (e.Arg + 1)
		}
	}
	if delay > 0 {
		in.record(MemJitter, now, fmt.Sprintf("+%d cycles addr=%#x", delay, addr))
	}
	return delay
}

// FlipPrediction reports whether this branch prediction must be
// inverted. Decisions hash a per-injector call counter so each query in
// a storm window is independent yet fully reproducible.
func (in *Injector) FlipPrediction(now uint64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.plan.Events {
		if e.Kind == MispredictStorm && e.active(now) {
			in.queries++
			period := e.Arg
			if period == 0 {
				period = 1
			}
			if mix(uint64(in.plan.Seed), in.queries, now)%period == 0 {
				in.record(MispredictStorm, now, "prediction flipped")
				return true
			}
			return false
		}
	}
	return false
}

// SkipRestoreRegs reports whether a rollback at cycle now must skip the
// register-file restore (the deliberately architectural fault proving
// the invisibility oracle has teeth).
func (in *Injector) SkipRestoreRegs(now uint64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.plan.Events {
		if e.Kind == SkipRestore && e.active(now) {
			in.record(SkipRestore, now, "register restore skipped (intentional corruption)")
			return true
		}
	}
	return false
}

// mix is a splitmix64-style hash of three words, the source of every
// pseudo-random per-query decision.
func mix(a, b, c uint64) uint64 {
	x := a ^ b*0x9e3779b97f4a7c15 ^ c*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
