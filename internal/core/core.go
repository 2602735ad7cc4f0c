// Package core implements Simultaneous Speculative Threading (SST), the
// checkpoint-based pipeline of Sun's ROCK processor and the primary
// contribution of the reproduced paper.
//
// The core is an in-order pipeline extended with:
//
//   - register checkpoints taken at long-latency events (cache-missing
//     loads, optionally divides), which replace the reorder buffer;
//   - a not-available (NA) bit per register, which replaces renaming:
//     instructions reading an NA register are appended — with the
//     operand values that are available — to the Deferred Queue (DQ);
//   - a speculative store buffer (SSB) holding stores until their epoch
//     commits, which replaces the memory-disambiguation machinery;
//   - a second hardware strand that replays the DQ when miss data
//     returns while the first strand keeps executing ahead — the
//     "simultaneous" in SST;
//   - hardware-scout (runahead) operation as the degenerate mode when
//     deferral is impossible, prefetching but discarding results.
//
// Speculation fails on a deferred branch (or indirect target) that was
// predicted wrong, or on SSB overflow during replay; failure rolls the
// machine back to the enclosing checkpoint. Atomics and barriers
// serialize: the ahead strand stalls until all epochs commit.
package core

import (
	"fmt"

	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/isa"
	"rocksim/internal/obs"
	"rocksim/internal/stats"
)

// ckptLifeLimit bounds the checkpoint-lifetime histogram; longer
// lifetimes clamp into the overflow bucket.
const ckptLifeLimit = 4096

// Config parameterizes the SST core.
type Config struct {
	// Width is the ahead strand's issue width.
	Width int
	// ReplayWidth is the deferred strand's replay width (used only when
	// SecondStrand is true).
	ReplayWidth int
	// Checkpoints is the number of register checkpoints, i.e. the
	// maximum number of concurrently speculating epochs. Zero degrades
	// the core to a stall-on-use in-order pipeline.
	Checkpoints int
	// DQSize is the Deferred Queue capacity in instructions. Zero
	// degrades speculation to hardware scout (pure runahead).
	DQSize int
	// SSBSize is the speculative store buffer capacity.
	SSBSize int
	// SecondStrand enables the second hardware strand: DQ replay runs
	// simultaneously with the ahead strand. When false the core is the
	// execute-ahead-only ablation: replay steals ahead-strand slots.
	SecondStrand bool
	// ScoutOnDQFull switches to hardware scout when the DQ fills,
	// discarding all deferred work for pure prefetching; otherwise the
	// ahead strand stalls until replay drains entries (preserving the
	// deferred work — the better default when a second strand exists).
	ScoutOnDQFull bool
	// DeferLongOps defers long-latency arithmetic like misses.
	DeferLongOps bool
	// LongOpMinLatency is the minimum latency (cycles) for an
	// arithmetic op to be deferred rather than scoreboarded. Divides
	// qualify; short multiplies do not (deferring them just manufactures
	// unpredictable deferred branches).
	LongOpMinLatency int
	// CheckpointPerMiss takes a fresh checkpoint (when one is free) at
	// each deferring miss, bounding rollback granularity.
	CheckpointPerMiss bool
	// CheckpointOnDeferredBranch takes a checkpoint (when one is free)
	// right before a branch that must be predicted because its operands
	// are NA. Deferred-branch mispredicts are the dominant speculation
	// failure; a checkpoint at the branch bounds the rollback to the
	// branch itself instead of the whole epoch.
	CheckpointOnDeferredBranch bool

	TakenPenalty      uint64
	MispredictPenalty uint64
	// RollbackPenalty is the pipeline refill bubble after restoring a
	// checkpoint.
	RollbackPenalty uint64

	// Secure-speculation mitigations (see secure.go and
	// docs/SECURITY.md). Each closes a transient-leakage channel the
	// sim.CheckTransientLeakage oracle can demonstrate on the unmitigated
	// core, at a cost charged to a dedicated CPI bucket.

	// SecureDelayOnMiss forbids speculative loads from changing
	// observable cache state: speculative hits probe without touching
	// LRU, speculative misses start no fill and hold the load until it
	// is the oldest unresolved instruction. Speculative prefetches
	// (store-triggered and software) are suppressed too.
	SecureDelayOnMiss bool
	// SecureNoNAForward quarantines every speculative load result: the
	// fill still issues (keeping the prefetching benefit) but the value
	// may not forward to consumers until the load is the oldest
	// unresolved instruction, so no secret-dependent address can form
	// under speculation.
	SecureNoNAForward bool
	// SecureEagerSSBFlush closes the speculative-store channels only:
	// speculative stores issue no prefetch, and loads may not consume a
	// speculative store's data (store-to-load forwarding out of the SSB
	// is held until the load is oldest-unresolved).
	SecureEagerSSBFlush bool
}

// DefaultConfig returns the ROCK-like SST core: 2-wide ahead strand,
// 2-wide replay strand, 4 checkpoints, 64-entry DQ, 32-entry SSB.
func DefaultConfig() Config {
	return Config{
		Width:                      2,
		ReplayWidth:                2,
		Checkpoints:                4,
		DQSize:                     64,
		SSBSize:                    32,
		SecondStrand:               true,
		ScoutOnDQFull:              false,
		DeferLongOps:               true,
		LongOpMinLatency:           10,
		CheckpointPerMiss:          true,
		CheckpointOnDeferredBranch: true,
		TakenPenalty:               2,
		MispredictPenalty:          8,
		RollbackPenalty:            6,
	}
}

// ExecuteAheadConfig is the ablation without the second strand: the DQ
// replays through the same pipeline that executes ahead.
func ExecuteAheadConfig() Config {
	c := DefaultConfig()
	c.SecondStrand = false
	return c
}

// ScoutConfig is the hardware-scout (runahead) ablation: no deferred
// queue at all — a miss checkpoints, runs ahead purely for prefetching,
// and re-executes everything when the miss returns. The store buffer
// remains (it is physical hardware, also needed by transactions); only
// the deferred queue is absent.
func ScoutConfig() Config {
	c := DefaultConfig()
	c.DQSize = 0
	c.SecondStrand = false
	c.Checkpoints = 1
	return c
}

// Bounds Validate enforces. The core sizes its deferred-queue slots,
// ready list and checkpoint store from the configuration in New, so an
// unbounded request would be an unbounded allocation.
const (
	maxCheckpoints = 64
	maxQueueSize   = 1 << 16 // DQSize and SSBSize
	maxWidth       = 64      // Width and ReplayWidth
)

// Validate reports the first field outside the bounds the core can
// honour. Values New clamps (a width below one, a negative checkpoint
// count) stay accepted.
func (c Config) Validate() error {
	switch {
	case c.Checkpoints > maxCheckpoints:
		return fmt.Errorf("core: Checkpoints %d exceeds %d", c.Checkpoints, maxCheckpoints)
	case c.DQSize < 0 || c.DQSize > maxQueueSize:
		return fmt.Errorf("core: DQSize %d outside [0, %d]", c.DQSize, maxQueueSize)
	case c.SSBSize < 0 || c.SSBSize > maxQueueSize:
		return fmt.Errorf("core: SSBSize %d outside [0, %d]", c.SSBSize, maxQueueSize)
	case c.Width > maxWidth:
		return fmt.Errorf("core: Width %d exceeds %d", c.Width, maxWidth)
	case c.ReplayWidth > maxWidth:
		return fmt.Errorf("core: ReplayWidth %d exceeds %d", c.ReplayWidth, maxWidth)
	}
	return nil
}

// Mode is the operating mode of the core.
type Mode uint8

// Core modes.
const (
	ModeNormal Mode = iota // no live checkpoints
	ModeSpec               // speculating with a deferred queue
	ModeScout              // runahead: prefetch only, results discarded
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeSpec:
		return "spec"
	case ModeScout:
		return "scout"
	}
	return "?"
}

// CycleKind classifies each cycle for the execution-time breakdown
// (paper figure F2).
type CycleKind uint8

// Cycle classifications.
const (
	CyNormal       CycleKind = iota // normal mode, instructions executed
	CyNormalStall                   // normal mode, no progress
	CyAhead                         // speculating: only the ahead strand progressed
	CyReplay                        // speculating: only the deferred strand progressed
	CySimultaneous                  // both strands progressed (the SST win)
	CySpecStall                     // speculating, neither strand progressed
	CyScout                         // hardware scout
	NumCycleKinds
)

func (k CycleKind) String() string {
	switch k {
	case CyNormal:
		return "normal"
	case CyNormalStall:
		return "normal-stall"
	case CyAhead:
		return "ahead"
	case CyReplay:
		return "replay"
	case CySimultaneous:
		return "simultaneous"
	case CySpecStall:
		return "spec-stall"
	case CyScout:
		return "scout"
	}
	return "?"
}

// RollbackCause identifies why speculation failed.
type RollbackCause uint8

// Rollback causes.
const (
	RbBranch    RollbackCause = iota // deferred branch mispredicted
	RbJalr                           // deferred indirect target mispredicted
	RbSSB                            // store buffer overflow during replay
	RbScout                          // scheduled scout-mode rollback
	RbMemOrder                       // deferred store conflicted with an ahead load
	RbInjected                       // spurious rollback forced by a fault plan
	RbCoherence                      // remote store hit the speculative read set
	NumRollbackCauses
)

func (r RollbackCause) String() string {
	switch r {
	case RbBranch:
		return "branch"
	case RbJalr:
		return "jalr"
	case RbSSB:
		return "ssb-overflow"
	case RbScout:
		return "scout"
	case RbMemOrder:
		return "mem-order"
	case RbInjected:
		return "injected"
	case RbCoherence:
		return "coherence"
	}
	return "?"
}

// Stats extends the common statistics with SST-specific accounting.
type Stats struct {
	cpu.BaseStats

	CheckpointsTaken uint64
	EpochCommits     uint64
	Rollbacks        uint64
	RollbacksBy      [NumRollbackCauses]uint64

	Deferrals             uint64 // instructions placed in the DQ
	Replays               uint64 // DQ entries successfully replayed
	DeferredBranches      uint64
	DeferredBranchMispred uint64
	PendingMisses         uint64 // deferred-result events (miss loads, long ops)

	ScoutEntries   uint64 // transitions into scout mode
	ScoutInsts     uint64 // instructions processed while scouting
	DiscardedInsts uint64 // speculative work undone by rollbacks

	ModeCycles         [NumCycleKinds]uint64
	DQFullStallCycles  uint64
	SSBFullStallCycles uint64
	AtomicStallCycles  uint64

	// Secure-speculation accounting (see secure.go). The StallCycles
	// counters bump once per cycle in which the named mitigation is
	// holding a result back; the event counters count the held items.
	SecureDelayStallCycles uint64 // cycles with a fill-denied load waiting (SecureDelayOnMiss)
	SecureNoFwdStallCycles uint64 // cycles with a ready-but-quarantined result waiting (SecureNoNAForward)
	SecureSSBStallCycles   uint64 // cycles with a forwarding-denied load waiting (SecureEagerSSBFlush)
	SecureBlockedLoads     uint64 // speculative loads denied a fill or SSB forward
	SecureQuarantined      uint64 // speculative load results quarantined
	SecureReleases         uint64 // held results released at oldest-unresolved
	SecurePrefetchDenied   uint64 // speculative prefetches suppressed

	// Tx counts hardware-transactional-memory events (the HTM extension
	// built on the checkpoint/SSB machinery).
	Tx TxStats

	DQOcc    *stats.Hist // deferred-queue occupancy per cycle
	SSBOcc   *stats.Hist // store-buffer occupancy per cycle
	CkptOcc  *stats.Hist // live checkpoints per cycle
	CkptLife *stats.Hist // checkpoint lifetime (cycles from take to commit/abort)
}

// checkpoint snapshots everything needed to restart execution at the
// instruction that triggered it.
type checkpoint struct {
	startSeq   uint64 // seq of the triggering instruction
	pc         uint64 // its PC (rollback target)
	takenAt    uint64 // cycle the checkpoint was taken (lifetime accounting)
	regs       [isa.NumRegs]int64
	na         [isa.NumRegs]bool
	lastWriter [isa.NumRegs]uint64
	readyAt    [isa.NumRegs]uint64
	ghr        uint64 // branch-history snapshot
	processed  uint64 // architectural instruction count at checkpoint

	// cpi snapshots the cycle-accounting stack at checkpoint take, so a
	// rollback can re-attribute every cycle spent since to the rollback's
	// cause bucket ("cycles discarded"). CPI only grows between take and
	// rollback, so the re-attribution delta is exact.
	cpi [cpu.NumBuckets]uint64
}

// dqEntry is one deferred instruction with its captured operands. It
// lives in a stable slot of Core.dqs from deferral to replay or squash
// (see replay.go for the queue's links and invariants).
type dqEntry struct {
	seq  uint64 // 0 while the slot is free
	in   isa.Inst
	pc   uint64
	vals [3]int64  // captured operand values; NA ones are filled by wake
	dep  [3]uint64 // producing seq for NA operands
	isNA [3]bool

	predTaken  bool   // deferred conditional branch prediction
	predTarget uint64 // deferred indirect target prediction

	// prev and next link the live entries oldest to youngest (-1 ends).
	prev, next int32
	// cons heads the list of NA operands waiting on this entry's result,
	// newest first; link[i] continues the list operand i is on (see
	// consumerNode).
	cons int32
	link [3]int32
}

// pendingResult is an in-flight deferred value: a missing load or a
// long-latency operation whose result arrives at a future cycle.
type pendingResult struct {
	seq   uint64
	rd    uint8
	val   int64
	ready uint64
	// cons heads the list of DQ operands waiting on this value (see
	// dqEntry.cons); a replayed load that misses carries its entry's
	// list over.
	cons int32

	// Secure-speculation hold state (see secure.go). A blocked entry has
	// not performed its memory access yet (ready is the secureHold
	// sentinel); a quarantined entry holds an arrived value that may not
	// forward to consumers. Both release only once the entry is the
	// oldest unresolved instruction.
	op          isa.Op
	addr        uint64
	pc          uint64
	blocked     bool
	quarantined bool
	secSSB      bool // blocked by SecureEagerSSBFlush, not SecureDelayOnMiss
}

// ssbEntry is one speculative store, ordered by seq.
type ssbEntry struct {
	seq  uint64
	addr uint64
	size int
	val  int64
}

// readRec is one speculative load in the read set.
type readRec struct {
	seq  uint64
	addr uint64
	size int
}

// Core is the SST pipeline model.
type Core struct {
	cfg Config
	m   *cpu.Machine
	fe  *cpu.Frontend

	regs       [isa.NumRegs]int64
	na         [isa.NumRegs]bool
	lastWriter [isa.NumRegs]uint64
	readyAt    [isa.NumRegs]uint64 // short-wait scoreboard (L1 hits, ALU lat)

	mode  Mode
	seq   uint64 // next sequence number (monotonic, never rewinds)
	ckpts []checkpoint
	ssb   []ssbEntry
	// pend is sorted by seq, so pend[0] is the oldest pending result.
	pend []pendingResult

	// The Deferred Queue, in stable slots sized DQSize at New (see
	// replay.go): dqs holds the entries, dqHead/dqTail the age-ordered
	// list of the dqLen live ones, dqFree the unused slots. dqReady holds
	// the slots whose operands have all resolved, youngest first, so the
	// replay strand pops the oldest from its end. dqAddrStores holds the
	// deferred stores whose address is known. dqProd[r] is the slot of
	// the entry that marked r NA, valid while that entry's seq is
	// lastWriter[r].
	dqs            []dqEntry
	dqFree         []int32
	dqHead, dqTail int32
	dqLen          int
	dqReady        []int32
	dqAddrStores   []int32
	dqProd         [isa.NumRegs]int32

	// pendMin is the earliest ready cycle among pend entries (meaningful
	// only while pend is non-empty); deliver scans the list only once the
	// clock reaches it. Maintained on append (aheadLoad/replay misses,
	// long ops), on delivery and on rollback squash.
	pendMin uint64

	// sbHorizon is a monotonic upper bound on every readyAt value the
	// scoreboard has ever held. Once the clock passes it, no register is
	// still waiting on a short-latency producer and nextTimer can skip
	// the scoreboard scan entirely.
	sbHorizon uint64

	// readSet records speculative ahead-strand loads (seq-ordered).
	// A deferred store whose address was unknown verifies against it at
	// replay: overlap with a younger load means the load read stale data
	// and speculation must roll back. This is how SST keeps loads
	// flowing past unresolved stores without a disambiguation CAM.
	readSet []readRec

	// processed counts instructions handled by the ahead strand since
	// program start; rolled back with checkpoints. Architectural retire
	// count advances from it at epoch commits.
	processed uint64

	scoutTriggerSeq uint64 // pending seq whose delivery triggers rollback
	scoutArmed      bool

	// Forward-progress guarantee: after a rollback the triggering
	// instruction executes without opening new speculation, so that a
	// long-latency event that recurs identically (e.g. a divide, or a
	// re-evicted line) cannot livelock the checkpoint/rollback loop.
	forceProgress   bool
	forceProgressPC uint64

	// Hardware transactional memory state (see htm.go).
	tx            txState
	invalListener bool

	// cohSeq, when non-zero, is the oldest speculative load whose line a
	// remote store invalidated since the last Step: its value may be
	// stale (ahead loads capture values at issue, deferred loads at
	// replay — either can be overtaken by a remote commit), so the epoch
	// containing it must roll back. Set by the coherence listener during
	// another core's Step, consumed at the top of ours (see
	// coherence.go); NextEvent refuses to fast-forward past it.
	cohSeq uint64

	// sink, when set, observes cycles and events (see probe.go and
	// internal/obs); occ is its per-cycle scratch buffer.
	sink obs.Sink
	occ  [4]int

	// flt, when set, is consulted at the speculation decision points
	// (checkpoint allocation, DQ/SSB insertion, deferred-branch
	// prediction, rollback) and may perturb them. Nil injects nothing.
	flt *faults.Injector

	done  bool
	err   error
	cycle uint64

	// resolveDirty gates the per-cycle commit scan: it is set whenever
	// something resolves or is squashed (delivery, replay, rollback, tx
	// events) and cleared when commitEpochs finds the oldest epoch still
	// blocked. While clear, the oldest unresolved seq cannot have grown
	// and the epoch boundary only moves up, so the scan is skipped.
	resolveDirty bool

	// quiet records that the previous Step made no progress; stall
	// detection (skip.go) only runs on a cycle whose predecessor was
	// already quiet, keeping nextTimer off the busy path. A stall window
	// is merely detected one cycle later.
	quiet bool

	// activity counts the events that make a cycle unskippable: every
	// delivery, replay, commit, rollback, checkpoint take or denial,
	// scout entry, transaction abort, secure release, predictor access
	// and fault-injector clamp. A stall cycle that leaves it unchanged is
	// pure (see skip.go).
	activity uint64

	// stalled records the per-cycle stall counters this Step bumped
	// (see skip.go). Reset at Step entry.
	stalled stallSet

	// feStall records that the ahead strand broke on the frontend this
	// Step (redirect bubble, line fill, or wrong-path garbage), for the
	// CPI-stack attribution of stall cycles. Reset at Step entry.
	feStall bool

	// Held pend entries by kind (see secure.go): blocked by
	// SecureDelayOnMiss, blocked by SecureEagerSSBFlush, and quarantined
	// with the access done. The per-cycle release step is gated on their
	// sum, so insecure runs pay nothing.
	secDelayHeld, secSSBHeld, secQuarHeld int

	// specFills logs the seq of every speculative access that started a
	// cache fill while secrets were installed (see secure.go); rollback
	// counts the squashed suffix into the hierarchy's leak statistics.
	specFills []uint64

	// Fast-forward state, valid while cycle < ffNext: the last Step was a
	// pure stall classified as ffKind with the recorded per-cycle stall
	// and MLP contributions, and nothing can change before ffNext (see
	// skip.go). Self-expiring: once the clock reaches ffNext, NextEvent
	// reports no skip and the next Step re-derives everything.
	ffNext   uint64
	ffKind   CycleKind
	ffBucket cpu.Bucket
	ffStall  stallSet
	ffMLP    int

	stats Stats
}

// New creates an SST core executing from entry.
func New(m *cpu.Machine, cfg Config, entry uint64) *Core {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	if cfg.ReplayWidth < 1 {
		cfg.ReplayWidth = 1
	}
	if cfg.Checkpoints < 0 {
		cfg.Checkpoints = 0
	}
	if cfg.DQSize < 0 {
		cfg.DQSize = 0
	}
	c := &Core{
		cfg: cfg,
		m:   m,
		fe:  cpu.NewFrontend(m, entry),
	}
	if cfg.Checkpoints > 0 {
		c.ckpts = make([]checkpoint, 0, cfg.Checkpoints)
	}
	c.dqs = make([]dqEntry, cfg.DQSize)
	c.dqFree = make([]int32, 0, cfg.DQSize)
	c.dqReady = make([]int32, 0, cfg.DQSize)
	c.dqAddrStores = make([]int32, 0, cfg.DQSize)
	c.dqClear()
	c.seq = 1 // seq 0 reserved so lastWriter==0 means "no producer"
	if m.Coherent {
		// Shared-memory chip: watch remote stores so speculative loads
		// that read stale data roll back (and transactions abort on
		// conflict) — see coherence.go.
		c.installInvalListener()
	}
	c.stats.DQOcc = stats.NewHist(max(cfg.DQSize, 1))
	c.stats.SSBOcc = stats.NewHist(max(cfg.SSBSize, 1))
	c.stats.CkptOcc = stats.NewHist(max(cfg.Checkpoints, 1))
	c.stats.CkptLife = stats.NewHist(ckptLifeLimit)
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the program has halted.
func (c *Core) Done() bool { return c.done }

// Retired returns architecturally retired instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Base returns the common statistics block.
func (c *Core) Base() *cpu.BaseStats { return &c.stats.BaseStats }

// Stats returns the full SST statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns a fatal simulation error, if any.
func (c *Core) Err() error { return c.err }

// Mode returns the current operating mode (for tests and examples).
func (c *Core) Mode() Mode { return c.mode }

// Regs returns the architectural register file. Valid once Done — while
// speculating it reflects speculative state.
func (c *Core) Regs() [isa.NumRegs]int64 { return c.regs }

// SetFaults installs a fault injector (see internal/faults). Pass nil
// to disable. Injected faults perturb microarchitectural decisions only;
// the speculation machinery must keep them architecturally invisible
// (enforced by internal/sim's fault-fuzz oracle).
func (c *Core) SetFaults(in *faults.Injector) { c.flt = in }

// Step advances the core one cycle.
func (c *Core) Step() {
	now := c.cycle
	c.ffNext = 0
	c.feStall = false
	c.stalled = 0
	act0 := c.activity
	checkStall := c.quiet

	c.deliver(now)
	if c.tx.active && c.tx.abort != 0 {
		c.txAbort(now)
	}
	if c.cohSeq != 0 {
		c.applyCoherence(now)
	}
	if c.flt != nil && c.mode == ModeSpec && !c.tx.active && len(c.ckpts) > 0 &&
		c.flt.WantSpuriousRollback(now) {
		// A scheduled transient fault: squash the youngest epoch. The
		// event stays armed until a cycle with live speculation to roll
		// back (and never fires inside a transaction, whose checkpoint is
		// owned by the HTM machinery).
		c.rollback(len(c.ckpts)-1, now, RbInjected)
		c.flt.RollbackApplied(now)
	}

	replayed := 0
	aheadBudget := c.cfg.Width
	if c.mode == ModeSpec {
		budget := c.cfg.ReplayWidth
		if !c.cfg.SecondStrand {
			budget = aheadBudget
		}
		replayed = c.replay(now, budget)
		if !c.cfg.SecondStrand {
			aheadBudget -= replayed
		}
	}
	if c.err != nil {
		return
	}

	c.commitEpochs(now)

	if c.mode == ModeScout {
		c.maybeScoutRollback(now)
	}

	executed := 0
	if !c.done && c.err == nil && aheadBudget > 0 {
		executed = c.ahead(now, aheadBudget)
	}
	if c.err != nil {
		return
	}

	kind := c.classifyCycle(executed, replayed)
	if c.sink != nil {
		c.occ[0], c.occ[1], c.occ[2], c.occ[3] = c.dqLen, len(c.ssb), len(c.ckpts), len(c.pend)
		c.sink.CycleState(now, c.mode.String(), executed, replayed, c.occ[:])
	}
	outstanding := c.m.Hier.OutstandingDataMisses(c.m.CoreID, now)
	c.stats.SampleMLP(outstanding)
	bucket := c.classifyBucket(executed, replayed, outstanding)
	c.stats.CPI[bucket]++
	c.stats.DQOcc.Add(c.dqLen)
	c.stats.SSBOcc.Add(len(c.ssb))
	c.stats.CkptOcc.Add(len(c.ckpts))
	c.stats.Cycles++
	c.cycle++
	c.quiet = executed == 0 && replayed == 0 && !c.done
	if checkStall {
		c.noteStall(act0, executed, replayed, kind, bucket, outstanding, now)
	}
}

// classifyBucket attributes the cycle for the CPI stack. Any strand
// progress — architectural, speculative or scout — counts as retire;
// cycles of work later squashed are re-attributed to the rollback's
// cause when it happens (see rollback). A stall cycle is named by the
// structural counter it bumped this Step, then by the memory system,
// then by the frontend, defaulting to a scoreboard (dependency) wait.
// Every input is held constant across a fast-forward window, so SkipTo
// replays the same attribution in bulk.
func (c *Core) classifyBucket(executed, replayed, outstanding int) cpu.Bucket {
	if executed > 0 || replayed > 0 {
		return cpu.BktRetire
	}
	switch s := c.stalled; {
	case s&stallDQ != 0:
		return cpu.BktDQFull
	case s&stallSSB != 0:
		return cpu.BktSSBFull
	case s&stallAtomic != 0:
		return cpu.BktAtomic
	// Secure-mode holds outrank the memory system: a held result is the
	// proximate blocker even while its (or another) miss is outstanding.
	case s&stallSecDelay != 0:
		return cpu.BktSecureDelay
	case s&stallSecNoFwd != 0:
		return cpu.BktSecureNoFwd
	case s&stallSecSSB != 0:
		return cpu.BktSecureSSB
	case outstanding > 0:
		return cpu.BktMSHR
	case c.feStall:
		return cpu.BktFetch
	default:
		return cpu.BktScoreboard
	}
}

func (c *Core) classifyCycle(executed, replayed int) CycleKind {
	var k CycleKind
	switch c.mode {
	case ModeNormal:
		if executed > 0 {
			k = CyNormal
		} else {
			k = CyNormalStall
		}
	case ModeScout:
		k = CyScout
	default:
		switch {
		case executed > 0 && replayed > 0:
			k = CySimultaneous
		case executed > 0:
			k = CyAhead
		case replayed > 0:
			k = CyReplay
		default:
			k = CySpecStall
		}
	}
	c.stats.ModeCycles[k]++
	return k
}

// deliver applies pending deferred results whose data has arrived.
// Entries held by a secure-speculation mode (blocked or quarantined) are
// exempt from the time-based scan; secureRelease frees them when they
// become the oldest unresolved instruction.
func (c *Core) deliver(now uint64) {
	if c.secHeld() > 0 {
		c.secureRelease(now)
	}
	if len(c.pend) == 0 || now < c.pendMin {
		return
	}
	live := c.pend[:0]
	var min uint64
	for _, p := range c.pend {
		if p.ready > now || p.blocked || p.quarantined {
			live = append(live, p)
			if min == 0 || p.ready < min {
				min = p.ready
			}
			continue
		}
		c.wake(p.cons, p.val)
		c.deliverRF(p.seq, p.rd, p.val, now)
		c.resolveDirty = true
		c.activity++
	}
	c.pend = live
	c.pendMin = min
}

// deliverRF writes a resolved value into the architectural register file
// if no younger instruction has claimed the register since — and into
// every checkpoint copy that is still waiting on it, exactly as the
// hardware broadcasts fills to all checkpointed register files. Without
// the checkpoint update, a rollback could resurrect an NA bit whose
// producer has already delivered and will never deliver again.
func (c *Core) deliverRF(seq uint64, rd uint8, v int64, now uint64) {
	if rd == isa.RegZero {
		return
	}
	if c.lastWriter[rd] == seq {
		c.regs[rd] = v
		c.na[rd] = false
		c.readyAt[rd] = now
	}
	for i := range c.ckpts {
		ck := &c.ckpts[i]
		if ck.na[rd] && ck.lastWriter[rd] == seq {
			ck.regs[rd] = v
			ck.na[rd] = false
			ck.readyAt[rd] = now
		}
	}
}

// markNA marks rd not-available with the given producer.
func (c *Core) markNA(rd uint8, seq uint64) {
	if rd == isa.RegZero {
		return
	}
	c.na[rd] = true
	c.lastWriter[rd] = seq
}
