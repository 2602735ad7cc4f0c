package core

import (
	"rocksim/internal/cpu"
	"rocksim/internal/obs"
)

// This file implements cpu.FastForwarder for the SST core: proving that
// a cycle was a pure stall, finding the earliest future cycle at which
// anything can change, and bulk-crediting the skipped cycles so every
// counter, histogram and sink emission is bit-identical to naive
// stepping.
//
// Purity is one comparison: Core.activity, read at Step entry and at
// Step exit. Every path that changes what a stall cycle must not change
// bumps it — delivery, replay, commit, rollback, checkpoint take or
// denial, scout entry, transaction abort, secure release, predictor
// access (a deferred-branch retry consults the direction predictor every
// cycle; a jalr retry may pop the RAS) and a fault-injector clamp (clamp
// probes record per retry inside an active window). Executing or
// replaying an instruction is progress and already rules a skip out.
// What remains — the genuinely replicable stalls — mutates only the
// time-indexed accounting and the per-cycle stall counters (the
// stallSet), which SkipTo replays in closed form.

var _ cpu.FastForwarder = (*Core)(nil)

// stallSet marks the per-cycle stall counters a Step bumped: the
// structural ones (DQ full, SSB full, atomic serialization) and the
// secure-mode holds. Each is bumped at most once per cycle — the ahead
// strand stops at the instruction that stalls, and the secure release
// step runs once — so classifyBucket names a stall by its set, and a
// skip replays the recorded set once per skipped cycle.
type stallSet uint8

const (
	stallDQ stallSet = 1 << iota
	stallSSB
	stallAtomic
	stallSecDelay
	stallSecNoFwd
	stallSecSSB
)

// stall bumps the per-cycle stall counters in set, once each.
func (c *Core) stall(set stallSet) {
	c.stalled |= set
	c.addStalls(set, 1)
}

// addStalls adds n to each stall counter in set.
func (c *Core) addStalls(set stallSet, n uint64) {
	s := &c.stats
	if set&stallDQ != 0 {
		s.DQFullStallCycles += n
	}
	if set&stallSSB != 0 {
		s.SSBFullStallCycles += n
	}
	if set&stallAtomic != 0 {
		s.AtomicStallCycles += n
	}
	if set&stallSecDelay != 0 {
		s.SecureDelayStallCycles += n
	}
	if set&stallSecNoFwd != 0 {
		s.SecureNoFwdStallCycles += n
	}
	if set&stallSecSSB != 0 {
		s.SecureSSBStallCycles += n
	}
}

// noteStall runs at the end of Step: if the cycle was a replicable pure
// stall it records the cycle's classification, stall set and skip horizon,
// otherwise it leaves fast-forwarding disabled.
func (c *Core) noteStall(act0 uint64, executed, replayed int, kind CycleKind, bucket cpu.Bucket, outstanding int, now uint64) {
	if executed != 0 || replayed != 0 || c.done || c.err != nil || c.activity != act0 {
		return
	}
	c.ffKind = kind
	c.ffBucket = bucket
	c.ffStall = c.stalled
	c.ffMLP = outstanding
	c.ffNext = c.nextTimer(now)
}

// nextTimer returns the earliest cycle strictly after now at which the
// core's state can change (0 = nothing pending): a deferred result
// delivering, a scoreboarded register becoming ready, the frontend
// finishing a bubble or line fill, a data-side MSHR fill moving the
// outstanding-miss count, or the fault plan entering a new regime.
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	bound(c.fe.NextDelivery(now))
	// pendMin is the exact earliest ready time in pend. After this
	// cycle's delivery only held entries can be due, so unless an
	// arrived quarantined value sits at or before now, pendMin is the
	// bound — or nothing, when every entry is a blocked hold.
	if len(c.pend) > 0 && c.pendMin > now {
		if c.pendMin != secureHold {
			bound(c.pendMin)
		}
	} else {
		for i := range c.pend {
			if c.pend[i].blocked {
				// No arrival time exists yet: the release is
				// event-driven, and the enabling resolution always
				// breaks stall purity.
				continue
			}
			bound(c.pend[i].ready)
		}
	}
	// sbHorizon is a monotonic upper bound on every readyAt value ever
	// written; once the clock passes it the whole scoreboard is quiescent
	// and the scan is skippable (rollback only restores values an earlier
	// write already folded into the horizon).
	if c.sbHorizon > now {
		for _, t := range c.readyAt {
			bound(t)
		}
	}
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	if c.flt != nil {
		bound(c.flt.NextChange(now))
	}
	return next
}

// NextEvent implements cpu.FastForwarder. It reports the pure-stall
// horizon recorded by the last Step; once the clock reaches it the
// answer decays to 0 and the core must be stepped naively.
func (c *Core) NextEvent() uint64 {
	if c.cohSeq != 0 || (c.tx.active && c.tx.abort != 0) {
		// A remote store scheduled a coherence rollback or transaction
		// abort after this cycle's purity was established (the listener
		// fires during another core's Step, possibly after ours recorded
		// a stall horizon). The repair must run at the very next cycle,
		// exactly where naive stepping would apply it.
		return 0
	}
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return 0
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target.
func (c *Core) SkipTo(target uint64) {
	if target <= c.cycle {
		return
	}
	n := target - c.cycle
	c.stats.ModeCycles[c.ffKind] += n
	c.stats.CPI[c.ffBucket] += n
	c.addStalls(c.ffStall, n)
	if c.ffMLP > 0 {
		c.stats.MLPSamples += n
		c.stats.MLPSum += uint64(c.ffMLP) * n
	}
	if c.sink != nil {
		c.occ[0], c.occ[1], c.occ[2], c.occ[3] = c.dqLen, len(c.ssb), len(c.ckpts), len(c.pend)
		obs.EmitCycleRun(c.sink, c.cycle, target, c.mode.String(), c.occ[:])
	}
	c.stats.DQOcc.AddN(c.dqLen, n)
	c.stats.SSBOcc.AddN(len(c.ssb), n)
	c.stats.CkptOcc.AddN(len(c.ckpts), n)
	c.stats.Cycles += n
	c.cycle = target
}
