package core

import (
	"fmt"

	"rocksim/internal/isa"
)

// Fingerprint canonically encodes the SST configuration for run-cache
// keys, field by field (see sim.Options.Fingerprint).
func (c Config) Fingerprint() string {
	return fmt.Sprintf("sst{width=%d replay=%d ckpts=%d dq=%d ssb=%d strand2=%t scoutdq=%t deferlong=%t longmin=%d ckptmiss=%t ckptbr=%t taken=%d mispred=%d rollback=%d secdelay=%t secnofwd=%t secssb=%t}",
		c.Width, c.ReplayWidth, c.Checkpoints, c.DQSize, c.SSBSize,
		c.SecondStrand, c.ScoutOnDQFull, c.DeferLongOps, c.LongOpMinLatency,
		c.CheckpointPerMiss, c.CheckpointOnDeferredBranch,
		c.TakenPenalty, c.MispredictPenalty, c.RollbackPenalty,
		c.SecureDelayOnMiss, c.SecureNoNAForward, c.SecureEagerSSBFlush)
}

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating: every speculative structure (DQ
// slots and lists, SSB, checkpoints, pending results, read set), the
// register file and NA bits, mode/scout/transaction/coherence state,
// the fast-forward cache and activity counter, and all statistics (histograms cleared in
// place). seq restarts at 1 — seq 0 stays reserved so lastWriter==0
// means "no producer", exactly as in New. The caller resets the shared
// machine separately (see cpu.Machine.Reset) and reinstalls per-run
// sinks and fault injectors afterwards, since a fresh core carries
// none.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	c.regs = [isa.NumRegs]int64{}
	c.na = [isa.NumRegs]bool{}
	c.lastWriter = [isa.NumRegs]uint64{}
	c.readyAt = [isa.NumRegs]uint64{}
	c.mode = ModeNormal
	c.seq = 1
	c.ckpts = c.ckpts[:0]
	c.dqClear()
	c.ssb = c.ssb[:0]
	c.pend = c.pend[:0]
	c.pendMin = 0
	c.sbHorizon = 0
	c.readSet = c.readSet[:0]
	c.processed = 0
	c.scoutTriggerSeq = 0
	c.scoutArmed = false
	c.forceProgress = false
	c.forceProgressPC = 0
	c.tx = txState{}
	c.cohSeq = 0
	c.sink = nil
	c.occ = [4]int{}
	c.flt = nil
	c.done = false
	c.err = nil
	c.cycle = 0
	c.resolveDirty = false
	c.quiet = false
	c.activity = 0
	c.feStall = false
	c.ffNext = 0
	c.ffKind = 0
	c.ffBucket = 0
	c.ffStall = 0
	c.stalled = 0
	c.ffMLP = 0
	c.secDelayHeld, c.secSSBHeld, c.secQuarHeld = 0, 0, 0
	c.specFills = c.specFills[:0]

	dq, ssb, ckpt, life := c.stats.DQOcc, c.stats.SSBOcc, c.stats.CkptOcc, c.stats.CkptLife
	dq.Reset()
	ssb.Reset()
	ckpt.Reset()
	life.Reset()
	c.stats = Stats{DQOcc: dq, SSBOcc: ssb, CkptOcc: ckpt, CkptLife: life}

	// The machine reset dropped the hierarchy's listeners; mirror New by
	// re-registering on a coherent chip. (The pooled single-core path is
	// never coherent, but the contract is Reset == New regardless.)
	c.invalListener = false
	if c.m.Coherent {
		c.installInvalListener()
	}
}

// Detach returns a frozen stats-only copy of the core in the same *Core
// shape: configuration, registers, clock and a deep copy of the
// statistics (occupancy and lifetime histograms cloned). It shares no
// mutable state with the live core, so long-lived consumers — reports,
// cached outcomes, published registries — keep exact figures while the
// pool resets and reuses the live core. Stats accessors (Base, Stats,
// Regs, Mode, Cycle, Retired, Done, Err, PublishObs) work on a detached
// core; Step must not be called on one.
func (c *Core) Detach() *Core {
	d := &Core{
		cfg:   c.cfg,
		regs:  c.regs,
		mode:  c.mode,
		done:  c.done,
		err:   c.err,
		cycle: c.cycle,
		stats: c.stats,
	}
	d.stats.DQOcc = c.stats.DQOcc.Clone()
	d.stats.SSBOcc = c.stats.SSBOcc.Clone()
	d.stats.CkptOcc = c.stats.CkptOcc.Clone()
	d.stats.CkptLife = c.stats.CkptLife.Clone()
	return d
}
