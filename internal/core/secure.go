package core

import (
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// Secure-speculation mitigations. Three Config switches close the
// transient-leakage channels that sim.CheckTransientLeakage demonstrates
// on the unmitigated core (speculative fills and LRU touches that
// survive a rollback):
//
//   - SecureDelayOnMiss: speculative loads probe the cache with no
//     observable side effect (mem.SpecProbeLoad). A hit completes
//     without touching LRU; a miss starts no fill — the load is *held*
//     (a blocked pendingResult) and performs its real access only once
//     it is the oldest unresolved instruction, i.e. no longer
//     speculative. Speculative prefetches are suppressed too, so no
//     speculative access ever changes observable cache state.
//
//   - SecureNoNAForward: speculative load accesses proceed (keeping the
//     prefetch benefit of the fill) but every result is *quarantined*:
//     the destination stays NA and the value forwards only once the
//     load is oldest-unresolved. No secret-dependent address can form
//     under speculation, so a transmitter access never issues.
//
//   - SecureEagerSSBFlush: speculative stores issue no prefetch and
//     never forward data to speculative loads — an overlapping load is
//     held like a blocked load and composes its value only at release.
//     Closes only the store-side channels (documented in
//     docs/SECURITY.md); combine with one of the above for full
//     coverage.
//
// A held entry releases when oldestUnresolvedSeq reaches it. That
// cannot deadlock: the oldest unresolved instruction is, by induction,
// either a replayable DQ entry, a pending result with a finite ready
// time, or a held entry — which this very rule releases. The one
// exception is scout mode, where DQ entries never replay; enterScout
// therefore drops all holds (dropSecureHolds).

// secureHold is the ready-time sentinel for blocked entries: the access
// has not been performed, so no arrival cycle exists yet. nextTimer
// skips sentinel entries (their release is event-driven, and every
// release bumps the activity counter, so a release cycle is never
// skipped).
const secureHold = ^uint64(0)

// secHeld returns the number of held pend entries.
func (c *Core) secHeld() int { return c.secDelayHeld + c.secSSBHeld + c.secQuarHeld }

// countHeld adds d to the held counter p belongs to, if any.
func (c *Core) countHeld(p *pendingResult, d int) {
	switch {
	case p.blocked && p.secSSB:
		c.secSSBHeld += d
	case p.blocked:
		c.secDelayHeld += d
	case p.quarantined:
		c.secQuarHeld += d
	}
}

// secureRelease frees held pending results. At most one entry can be
// the oldest unresolved instruction — pend is seq-sorted, so it can
// only be pend[0]; a blocked entry performs its real access there, a
// quarantined entry with arrived data forwards and retires. Entries
// still held bump the per-cycle stall counters that feed the BktSecure*
// CPI buckets: the held counters tell whether a blocked entry other than
// the oldest exists, and only quarantined entries, whose stall depends
// on their arrival, are scanned.
func (c *Core) secureRelease(now uint64) {
	oldest := c.oldestUnresolvedSeq()
	delay, ssb, quar := c.secDelayHeld, c.secSSBHeld, c.secQuarHeld
	release := false
	if len(c.pend) > 0 && c.pend[0].seq == oldest {
		p := &c.pend[0]
		switch {
		case p.blocked:
			release = true
			if p.secSSB {
				ssb--
			} else {
				delay--
			}
		case p.quarantined:
			release = p.ready <= now
			quar--
		}
	}
	if delay > 0 {
		c.stall(stallSecDelay)
	}
	if quar > 0 {
		for i := range c.pend {
			p := &c.pend[i]
			if p.quarantined && !p.blocked && p.ready <= now && p.seq != oldest {
				c.stall(stallSecNoFwd)
				break
			}
		}
	}
	if ssb > 0 {
		c.stall(stallSecSSB)
	}
	if !release {
		return
	}
	p := &c.pend[0]
	c.stats.SecureReleases++
	c.resolveDirty = true
	c.activity++
	c.countHeld(p, -1)
	if p.blocked {
		// Oldest-unresolved: the load is no longer speculative. Perform
		// the real access now; older stores have either drained to
		// memory or still sit — fully resolved — in the SSB, so the
		// composed value equals the architectural one.
		size := p.op.MemWidth()
		raw := c.composeLoad(p.addr, size, p.seq)
		p.val = isa.ExtendLoad(p.op, raw)
		res := c.m.Hier.AccessLoad(c.m.CoreID, p.addr, p.pc, now)
		c.stats.CountLoadLevel(res.Level)
		c.noteSpecAccess(p.addr, p.seq, res)
		p.ready = res.Ready
		p.blocked = false
		c.countHeld(p, 1) // still quarantined, if SecureNoNAForward
		if p.ready < c.pendMin {
			c.pendMin = p.ready
		}
		return
	}
	// Quarantined with data in hand: deliver and retire the entry.
	c.wake(p.cons, p.val)
	c.deliverRF(p.seq, p.rd, p.val, now)
	c.pend = c.pend[:copy(c.pend, c.pend[1:])]
	var min uint64
	for i := range c.pend {
		if min == 0 || c.pend[i].ready < min {
			min = c.pend[i].ready
		}
	}
	c.pendMin = min
}

// pendInsert adds a pending result, keeping pend seq-sorted. Ahead-strand
// results are the youngest and land at the end; replayed ones may sit
// further in.
func (c *Core) pendInsert(p pendingResult) {
	if len(c.pend) == 0 || p.ready < c.pendMin {
		c.pendMin = p.ready
	}
	c.pend = append(c.pend, p)
	i := len(c.pend) - 1
	for ; i > 0 && c.pend[i-1].seq > p.seq; i-- {
		c.pend[i] = c.pend[i-1]
	}
	c.pend[i] = p
	c.countHeld(&p, 1)
}

// secureBlock holds a speculative load whose access may not be
// performed yet: destination NA, a blocked pend entry carrying the
// access parameters for the release. ckpt mirrors deferResult's
// per-miss checkpointing on the ahead strand (replay never checkpoints);
// cons is the replayed entry's consumer list (-1 on the ahead strand).
func (c *Core) secureBlock(op isa.Op, rd uint8, pc, seq, addr uint64, ssbCause, ckpt bool, cons int32) {
	if ckpt && c.cfg.CheckpointPerMiss && c.mode == ModeSpec {
		c.takeCheckpoint(pc) // best effort; epochs merge when full
	}
	c.markNA(rd, seq)
	c.pendInsert(pendingResult{
		seq: seq, rd: rd, ready: secureHold, cons: cons,
		op: op, addr: addr, pc: pc,
		blocked: true, secSSB: ssbCause,
		quarantined: c.cfg.SecureNoNAForward,
	})
	c.stats.PendingMisses++
	c.stats.SecureBlockedLoads++
}

// securePend adds a pending result that already has its value,
// quarantined when SecureNoNAForward demands it. The caller marks the
// destination NA (ahead strand) or relies on the defer-time NA (replay,
// which passes the entry's consumer list as cons).
func (c *Core) securePend(seq uint64, rd uint8, v int64, ready uint64, miss, quarantine bool, cons int32) {
	c.pendInsert(pendingResult{seq: seq, rd: rd, val: v, ready: ready, cons: cons, quarantined: quarantine})
	if quarantine {
		c.stats.SecureQuarantined++
	}
	if miss {
		c.stats.PendingMisses++
	}
}

// quarantineLast flags the entry deferResult just appended (the ahead
// strand's result is the youngest, so it is last).
func (c *Core) quarantineLast() {
	c.pend[len(c.pend)-1].quarantined = true
	c.secQuarHeld++
	c.stats.SecureQuarantined++
}

// dropSecureHolds discards every held pending result when the core
// falls into scout mode. Scout speculation is certain to be squashed at
// the trigger rollback, DQ entries never replay there (so an
// oldest-unresolved release may never come), and the secure choice for
// work that will be discarded is to never perform the held access at
// all: the destination registers simply stay NA, like any other
// poisoned scout value.
func (c *Core) dropSecureHolds() {
	if c.secHeld() == 0 {
		return
	}
	live := c.pend[:0]
	var min uint64
	for _, p := range c.pend {
		if p.blocked || p.quarantined {
			continue
		}
		live = append(live, p)
		if min == 0 || p.ready < min {
			min = p.ready
		}
	}
	c.pend = live
	c.pendMin = min
	c.secDelayHeld, c.secSSBHeld, c.secQuarHeld = 0, 0, 0
	c.resolveDirty = true
}

// ssbOverlaps reports whether [addr, addr+size) overlaps a speculative
// store buffered with seq < uptoSeq (the SSB is seq-sorted).
func (c *Core) ssbOverlaps(addr uint64, size int, uptoSeq uint64) bool {
	for i := range c.ssb {
		s := &c.ssb[i]
		if s.seq >= uptoSeq {
			break
		}
		if s.addr < addr+uint64(size) && addr < s.addr+uint64(s.size) {
			return true
		}
	}
	return false
}

// noteSpecAccess records leak-oracle accounting for a speculative data
// access: the hierarchy's taint counter, plus the fill log that
// rollback converts into squashed-fill counts. Gated on installed
// secrets so ordinary runs pay one predicate call.
func (c *Core) noteSpecAccess(addr uint64, seq uint64, res mem.Result) {
	h := c.m.Hier
	if !h.SecretsInstalled() {
		return
	}
	h.NoteSpecAccess(addr)
	if res.Level != mem.LvlL1 && !res.Merged {
		c.specFills = append(c.specFills, seq)
	}
}

// secureLoadGate applies the secure load policies to an ahead-strand
// speculative load with a known address (mode is ModeSpec or ModeScout).
// Returns true when the load was fully handled here; false falls
// through to the unmitigated path.
func (c *Core) secureLoadGate(in isa.Inst, pc, seq, addr uint64, size int, now uint64) bool {
	if c.cfg.SecureEagerSSBFlush && c.ssbOverlaps(addr, size, seq) {
		// No store-to-load forwarding out of the speculative SSB: hold
		// the load until it is oldest-unresolved (scout just poisons).
		c.stats.Loads++
		c.stats.CountLoadLevel(mem.LvlMem)
		if c.mode == ModeScout {
			c.markNA(in.Rd, seq)
			return true
		}
		c.readSet = append(c.readSet, readRec{seq: seq, addr: addr, size: size})
		c.secureBlock(in.Op, in.Rd, pc, seq, addr, true, true, -1)
		return true
	}
	if c.cfg.SecureDelayOnMiss {
		c.stats.Loads++
		ready, hit := c.m.Hier.SpecProbeLoad(c.m.CoreID, addr, now)
		c.noteSpecAccess(addr, seq, mem.Result{Level: mem.LvlL1})
		if !hit {
			c.stats.CountLoadLevel(mem.LvlMem)
			if c.mode == ModeScout {
				c.markNA(in.Rd, seq)
				return true
			}
			c.readSet = append(c.readSet, readRec{seq: seq, addr: addr, size: size})
			c.secureBlock(in.Op, in.Rd, pc, seq, addr, false, true, -1)
			return true
		}
		c.stats.CountLoadLevel(mem.LvlL1)
		raw := c.composeLoad(addr, size, seq)
		v := isa.ExtendLoad(in.Op, raw)
		if c.mode == ModeSpec {
			c.readSet = append(c.readSet, readRec{seq: seq, addr: addr, size: size})
		}
		if c.isMiss(mem.Result{Ready: ready, Level: mem.LvlL1}, now) {
			// Piggybacked on an in-flight fill: a pending result as usual.
			c.deferResult(in.Rd, v, ready, pc, seq)
			if c.cfg.SecureNoNAForward && c.mode == ModeSpec {
				c.quarantineLast()
			}
			return true
		}
		if c.cfg.SecureNoNAForward {
			if c.mode == ModeScout {
				c.markNA(in.Rd, seq)
				return true
			}
			c.markNA(in.Rd, seq)
			c.securePend(seq, in.Rd, v, ready, false, true, -1)
			return true
		}
		c.write(in.Rd, v, ready, seq)
		return true
	}
	if c.cfg.SecureNoNAForward {
		// The fill proceeds; only the value is held back.
		raw := c.composeLoad(addr, size, seq)
		v := isa.ExtendLoad(in.Op, raw)
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, pc, now)
		c.stats.Loads++
		c.stats.CountLoadLevel(res.Level)
		c.noteSpecAccess(addr, seq, res)
		if c.mode == ModeScout {
			c.markNA(in.Rd, seq)
			return true
		}
		c.readSet = append(c.readSet, readRec{seq: seq, addr: addr, size: size})
		if c.isMiss(res, now) {
			c.deferResult(in.Rd, v, res.Ready, pc, seq)
			c.quarantineLast()
			return true
		}
		c.markNA(in.Rd, seq)
		c.securePend(seq, in.Rd, v, res.Ready, false, true, -1)
		return true
	}
	return false
}

// secureReplayLoad is secureLoadGate's deferred-strand twin: a replayed
// load is speculative by construction. The caller has already joined
// the read set and dequeued the entry; its destination is already NA
// from defer time. Returns true when handled.
func (c *Core) secureReplayLoad(e *dqEntry, addr uint64, size int, now uint64) bool {
	in := e.in
	if c.cfg.SecureEagerSSBFlush && c.ssbOverlaps(addr, size, e.seq) {
		c.stats.Loads++
		c.stats.CountLoadLevel(mem.LvlMem)
		c.secureBlock(in.Op, in.Rd, e.pc, e.seq, addr, true, false, e.cons)
		return true
	}
	if c.cfg.SecureDelayOnMiss {
		c.stats.Loads++
		ready, hit := c.m.Hier.SpecProbeLoad(c.m.CoreID, addr, now)
		c.noteSpecAccess(addr, e.seq, mem.Result{Level: mem.LvlL1})
		if !hit {
			c.stats.CountLoadLevel(mem.LvlMem)
			c.secureBlock(in.Op, in.Rd, e.pc, e.seq, addr, false, false, e.cons)
			return true
		}
		c.stats.CountLoadLevel(mem.LvlL1)
		raw := c.composeLoad(addr, size, e.seq)
		v := isa.ExtendLoad(in.Op, raw)
		miss := c.isMiss(mem.Result{Ready: ready, Level: mem.LvlL1}, now)
		if miss || c.cfg.SecureNoNAForward {
			c.securePend(e.seq, in.Rd, v, ready, miss, c.cfg.SecureNoNAForward, e.cons)
			return true
		}
		c.wake(e.cons, v)
		c.deliverRF(e.seq, in.Rd, v, now)
		return true
	}
	if c.cfg.SecureNoNAForward {
		raw := c.composeLoad(addr, size, e.seq)
		v := isa.ExtendLoad(in.Op, raw)
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, e.pc, now)
		c.stats.Loads++
		c.stats.CountLoadLevel(res.Level)
		c.noteSpecAccess(addr, e.seq, res)
		c.securePend(e.seq, in.Rd, v, res.Ready, c.isMiss(res, now), true, e.cons)
		return true
	}
	return false
}
