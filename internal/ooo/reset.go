package ooo

import (
	"fmt"

	"rocksim/internal/isa"
)

// Fingerprint canonically encodes the out-of-order configuration for
// run-cache keys, field by field (see sim.Options.Fingerprint).
func (c Config) Fingerprint() string {
	return fmt.Sprintf("ooo{fetch=%d issue=%d commit=%d rob=%d iq=%d lsq=%d spec=%t taken=%d mispred=%d}",
		c.FetchWidth, c.IssueWidth, c.CommitWidth, c.ROBSize, c.IQSize, c.LSQSize,
		c.SpecLoads, c.TakenPenalty, c.MispredictPenalty)
}

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating. The ROB ring's entries, their
// issue-window nodes and the FIFO buffers are not zeroed: push() fully
// overwrites a slot on allocation, and headSeq/count, the window's
// list heads and the FIFO positions make stale slots unreachable, so
// clearing them would only burn cycles. The caller resets the shared
// machine separately (see cpu.Machine.Reset) and reinstalls per-run
// sinks afterwards.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	c.regs = [isa.NumRegs]int64{}
	c.regTag = [isa.NumRegs]uint64{}
	c.tagOK = [isa.NumRegs]bool{}
	c.count = 0
	c.headSeq = 0
	c.nextSeq = 0
	c.memOps = 0
	c.uHead, c.uTail = -1, -1
	c.wakeMin = never
	c.loads.head, c.loads.tail = 0, 0
	c.stores.head, c.stores.tail = 0, 0
	c.fetchBlockedSeq = 0
	c.fetchBlocked = false
	c.fetchGarbage = false
	c.haltFetched = false
	c.cycle = 0
	c.done = false
	c.err = nil
	c.stats = Stats{}
	c.sink = nil
	c.occ = [2]int{}
	c.ffNext = 0
	c.ffRobFull = 0
	c.ffFetchStall = 0
	c.ffEmptyIssue = 0
	c.ffMLP = 0
}

// Detach returns a frozen stats-only copy of the core in the same *Core
// shape, safe to hand to long-lived consumers while the live core is
// reset and reused by the pool. Stats accessors work on a detached
// core; Step must not be called on one.
func (c *Core) Detach() *Core {
	return &Core{
		cfg:   c.cfg,
		regs:  c.regs,
		cycle: c.cycle,
		done:  c.done,
		err:   c.err,
		stats: c.stats,
	}
}
