package core

import (
	"fmt"

	"rocksim/internal/cpu"
	"rocksim/internal/mem"
)

// takeCheckpoint snapshots architectural state before the instruction at
// pc executes, opening a new speculation epoch. Returns false when no
// checkpoint register is free.
func (c *Core) takeCheckpoint(pc uint64) bool {
	if len(c.ckpts) >= c.cfg.Checkpoints {
		return false
	}
	c.activity++ // a take, or a recorded injected denial
	if c.flt.DenyCheckpoint(c.cycle) {
		// Injected allocation failure: identical to checkpoint exhaustion,
		// so callers fall back to their no-checkpoint paths.
		return false
	}
	ck := checkpoint{
		startSeq:   c.seq,
		pc:         pc,
		takenAt:    c.cycle,
		regs:       c.regs,
		na:         c.na,
		lastWriter: c.lastWriter,
		readyAt:    c.readyAt,
		ghr:        c.m.Pred.History(),
		processed:  c.processed,
		cpi:        c.stats.CPI,
	}
	c.ckpts = append(c.ckpts, ck)
	c.stats.CheckpointsTaken++
	if c.sink != nil {
		c.sink.SpanBegin(c.cycle, "checkpoint", "ckpt", ck.startSeq)
		c.sink.Event(c.cycle, "checkpoint", "checkpoint", fmt.Sprintf("pc=%#x seq=%d live=%d", pc, c.seq, len(c.ckpts)))
	}
	return true
}

// epochOf returns the index of the epoch containing seq (the youngest
// checkpoint whose startSeq <= seq).
func (c *Core) epochOf(seq uint64) int {
	for i := len(c.ckpts) - 1; i >= 0; i-- {
		if c.ckpts[i].startSeq <= seq {
			return i
		}
	}
	return 0
}

// oldestUnresolvedSeq returns the smallest sequence number that is still
// speculative: an unreplayed DQ entry or an undelivered pending result.
// Both are kept in seq order, so it is the older of the two heads.
// Returns c.seq when everything has resolved.
func (c *Core) oldestUnresolvedSeq() uint64 {
	oldest := c.seq
	if c.dqHead >= 0 {
		oldest = c.dqs[c.dqHead].seq
	}
	if len(c.pend) > 0 && c.pend[0].seq < oldest {
		oldest = c.pend[0].seq
	}
	return oldest
}

// commitEpochs retires fully resolved epochs from oldest to youngest:
// buffered stores drain to memory and the checkpoint is freed. When the
// last epoch commits, the core returns to normal mode.
func (c *Core) commitEpochs(now uint64) {
	if c.mode != ModeSpec || len(c.ckpts) == 0 {
		return
	}
	if !c.resolveDirty {
		// Nothing has resolved or been squashed since the last blocked
		// scan: the oldest unresolved seq is unchanged and the epoch
		// boundary only moves up, so the commit gate still fails.
		return
	}
	oldest := c.oldestUnresolvedSeq()
	for len(c.ckpts) > 0 {
		boundary := c.seq
		if len(c.ckpts) > 1 {
			boundary = c.ckpts[1].startSeq
		}
		if oldest < boundary {
			c.resolveDirty = false
			return
		}
		c.activity++
		c.drainSSB(boundary, now)
		// Account architectural retirement for the committed epoch.
		endProcessed := c.processed
		if len(c.ckpts) > 1 {
			endProcessed = c.ckpts[1].processed
		}
		c.stats.Retired += endProcessed - c.ckpts[0].processed
		// Committed reads no longer need conflict tracking. (The read
		// set is not seq-sorted — replayed loads append out of order —
		// so filter rather than trim a prefix.)
		rs := c.readSet[:0]
		for _, r := range c.readSet {
			if r.seq >= boundary {
				rs = append(rs, r)
			}
		}
		c.readSet = rs
		if len(c.specFills) > 0 {
			// Committed fills are architectural, not leaked residue.
			sf := c.specFills[:0]
			for _, s := range c.specFills {
				if s >= boundary {
					sf = append(sf, s)
				}
			}
			c.specFills = sf
		}
		c.stats.CkptLife.Add(int(now - c.ckpts[0].takenAt))
		if c.sink != nil {
			c.sink.SpanEnd(now, "checkpoint", c.ckpts[0].startSeq)
			c.sink.Event(now, "checkpoint", "commit", fmt.Sprintf("epoch boundary seq=%d", boundary))
		}
		// Shift in place rather than re-slicing from 1: advancing the
		// base would orphan the backing array's front and force the next
		// takeCheckpoint append to reallocate, putting a ~1KB allocation
		// on the steady-state commit path.
		n := copy(c.ckpts, c.ckpts[1:])
		c.ckpts = c.ckpts[:n]
		c.stats.EpochCommits++
	}
	// Everything committed: back to normal operation.
	c.mode = ModeNormal
	c.readSet = c.readSet[:0]
}

// drainSSB writes buffered stores with seq < boundary to memory in
// program order.
func (c *Core) drainSSB(boundary uint64, now uint64) {
	i := 0
	for ; i < len(c.ssb); i++ {
		e := c.ssb[i]
		if e.seq >= boundary {
			break
		}
		c.m.Mem.Write(e.addr, e.size, uint64(e.val))
		c.m.Hier.Access(c.m.CoreID, mem.AccWrite, e.addr, now)
		c.m.StoreVisible(e.addr)
		c.stats.Stores++
	}
	c.ssb = c.ssb[:copy(c.ssb, c.ssb[i:])]
}

// rollback restores the checkpoint opening epoch idx, squashing that
// epoch and everything younger. Execution resumes at the checkpointed PC
// after a pipeline-refill bubble.
func (c *Core) rollback(idx int, now uint64, cause RollbackCause) {
	ck := c.ckpts[idx]
	if c.flt.SkipRestoreRegs(now) {
		// Deliberately broken restore (faults.SkipRestore): keep the
		// speculative register values. Exists only so the invisibility
		// oracle can be proven to catch a rollback bug.
	} else {
		c.regs = ck.regs
	}
	c.na = ck.na
	c.lastWriter = ck.lastWriter
	c.readyAt = ck.readyAt
	c.m.Pred.SetHistory(ck.ghr)
	c.stats.DiscardedInsts += c.processed - ck.processed
	c.processed = ck.processed
	// Re-attribute the cycle-accounting stack: every cycle since this
	// checkpoint was taken was spent on (or alongside) work the rollback
	// just discarded, so it moves from the bucket it was first counted in
	// to the rollback cause's bucket. The total is conserved, keeping the
	// sum-equals-cycles invariant; attribution of cycles shared with
	// older, still-live epochs is deliberately charged to the failure.
	var moved uint64
	for b := range ck.cpi {
		moved += c.stats.CPI[b] - ck.cpi[b]
	}
	c.stats.CPI = ck.cpi
	c.stats.CPI[cpu.BktRollback0+cpu.Bucket(cause)] += moved
	for i := idx; i < len(c.ckpts); i++ {
		c.stats.CkptLife.Add(int(now - c.ckpts[i].takenAt))
		if c.sink != nil {
			c.sink.SpanEnd(now, "checkpoint", c.ckpts[i].startSeq)
		}
	}
	c.ckpts = c.ckpts[:idx]

	// Squash speculative state younger than the checkpoint.
	cut := ck.startSeq
	c.activity++
	c.squashDQ(cut)
	rs := c.readSet[:0]
	for _, r := range c.readSet {
		if r.seq < cut {
			rs = append(rs, r)
		}
	}
	c.readSet = rs
	ssb := c.ssb[:0]
	for _, e := range c.ssb {
		if e.seq < cut {
			ssb = append(ssb, e)
		}
	}
	c.ssb = ssb
	pend := c.pend[:0]
	var pendMin uint64
	c.secDelayHeld, c.secSSBHeld, c.secQuarHeld = 0, 0, 0
	for _, p := range c.pend {
		if p.seq < cut {
			pend = append(pend, p)
			if pendMin == 0 || p.ready < pendMin {
				pendMin = p.ready
			}
			c.countHeld(&p, 1)
		}
	}
	c.pend = pend
	c.pendMin = pendMin
	if len(c.specFills) > 0 {
		// Count the speculative fills this squash just turned into
		// attacker-observable residue (leak-oracle accounting; the log is
		// only populated while secrets are installed).
		sf := c.specFills[:0]
		squashed := 0
		for _, s := range c.specFills {
			if s < cut {
				sf = append(sf, s)
			} else {
				squashed++
			}
		}
		c.specFills = sf
		if squashed > 0 {
			c.m.Hier.NoteSquashedSpecFills(squashed)
		}
	}

	c.scoutArmed = false
	if len(c.ckpts) == 0 {
		c.mode = ModeNormal
	} else {
		c.mode = ModeSpec
	}
	c.stats.Rollbacks++
	c.stats.RollbacksBy[cause]++
	if c.sink != nil {
		c.sink.Event(now, "checkpoint", "rollback", fmt.Sprintf("cause=%v to pc=%#x", cause, ck.pc))
	}
	c.forceProgress = true
	c.forceProgressPC = ck.pc
	c.resolveDirty = true
	c.fe.Redirect(ck.pc, now, c.cfg.RollbackPenalty)
}

// enterScout transitions to hardware-scout mode: execution continues
// purely for its prefetching effect, and the machine rolls back to the
// oldest checkpoint once the triggering miss returns.
func (c *Core) enterScout() {
	if c.mode == ModeScout {
		return
	}
	c.mode = ModeScout
	c.activity++
	c.stats.ScoutEntries++
	if c.sink != nil {
		c.sink.Event(c.cycle, "mode", "scout", "deferral impossible: prefetch-only mode")
	}
	// Held results can only release at oldest-unresolved, which scout —
	// whose DQ never replays — may never reach: drop them (see secure.go).
	c.dropSecureHolds()
	c.armScoutTrigger()
}

// armScoutTrigger picks the oldest outstanding pending result as the
// scout-exit trigger.
func (c *Core) armScoutTrigger() {
	c.scoutArmed = len(c.pend) > 0
	if c.scoutArmed {
		c.scoutTriggerSeq = c.pend[0].seq
	}
}

// maybeScoutRollback exits scout mode once the trigger miss has been
// delivered (or if nothing is outstanding at all).
func (c *Core) maybeScoutRollback(now uint64) {
	if c.scoutArmed {
		for _, p := range c.pend {
			if p.seq >= c.scoutTriggerSeq {
				if p.seq == c.scoutTriggerSeq {
					return // still outstanding
				}
				break
			}
		}
	}
	c.rollback(0, now, RbScout)
}

// loadBlockedByDeferredStore reports whether a load to [addr, addr+size)
// provably conflicts with an older deferred store whose address is known
// (data still NA). Deferred stores with unknown addresses do not block —
// they verify against the read set at replay time instead.
func (c *Core) loadBlockedByDeferredStore(addr uint64, size int) bool {
	for _, s := range c.dqAddrStores {
		e := &c.dqs[s]
		sa := uint64(e.vals[0] + int64(e.in.Imm))
		if sa < addr+uint64(size) && addr < sa+uint64(e.in.Op.MemWidth()) {
			return true
		}
	}
	return false
}

// readSetConflict reports whether any speculative load younger than
// storeSeq overlaps [addr, addr+size). The read set is unsorted (ahead
// and replayed loads interleave), so this is a full scan.
func (c *Core) readSetConflict(storeSeq uint64, addr uint64, size int) bool {
	for i := range c.readSet {
		r := &c.readSet[i]
		if r.seq <= storeSeq {
			continue
		}
		if r.addr < addr+uint64(size) && addr < r.addr+uint64(r.size) {
			return true
		}
	}
	return false
}

// ssbInsert adds a speculative store in sequence order. Reports false if
// the buffer is full.
func (c *Core) ssbInsert(e ssbEntry) bool {
	limit := c.cfg.SSBSize
	if c.flt != nil {
		if limit = c.flt.ClampSSB(c.cycle, limit); limit < c.cfg.SSBSize {
			c.activity++ // the clamp recorded an injection
		}
	}
	if limit <= 0 || len(c.ssb) >= limit {
		return false
	}
	i := len(c.ssb)
	for i > 0 && c.ssb[i-1].seq > e.seq {
		i--
	}
	c.ssb = append(c.ssb, ssbEntry{})
	copy(c.ssb[i+1:], c.ssb[i:])
	c.ssb[i] = e
	return true
}

// composeLoad reads size bytes at addr from architectural memory,
// overlaying speculative stores older than uptoSeq in program order.
func (c *Core) composeLoad(addr uint64, size int, uptoSeq uint64) uint64 {
	raw := c.m.Mem.Read(addr, size)
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(raw >> (8 * i))
	}
	for _, s := range c.ssb { // ordered by seq: later entries win
		if s.seq >= uptoSeq {
			break
		}
		for b := 0; b < s.size; b++ {
			a := s.addr + uint64(b)
			if a >= addr && a < addr+uint64(size) {
				buf[a-addr] = byte(uint64(s.val) >> (8 * b))
			}
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}
