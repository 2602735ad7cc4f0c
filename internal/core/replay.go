package core

import (
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// The Deferred Queue keeps its entries in stable slots (Core.dqs, sized
// DQSize at New) so nothing moves once deferred:
//
//   - The live entries form a doubly linked list in program order
//     (dqHead oldest, dqTail youngest). deferToDQ always appends the
//     youngest instruction, replay unlinks from anywhere, and a rollback
//     cuts a suffix, so the list stays seq-sorted and dqHead is the
//     oldest deferred instruction.
//   - Each NA operand is linked at deferral onto its producer's consumer
//     list: a pend entry's or an older DQ entry's cons. Deferral captures
//     a dependence only while the register's NA bit is set, and delivery
//     clears that bit everywhere (checkpoint copies included) before any
//     later instruction can observe it, so the producer is always live
//     when the consumer links. wake walks exactly the operands waiting on
//     a resolved value; nothing scans the queue.
//   - Lists are newest first, so the consumers a rollback squashes are a
//     prefix of every surviving producer's list and are cut there.
//   - dqReady holds the entries with no NA operand left, sorted youngest
//     first; replay pops the oldest from its end.

// consumerNode names operand i of the entry in slot s on a consumer
// list; -1 ends a list.
func consumerNode(s int32, i int) int32 { return s<<2 | int32(i) }

// dqClear empties the queue: every slot free, no links.
func (c *Core) dqClear() {
	c.dqFree = c.dqFree[:0]
	for s := len(c.dqs) - 1; s >= 0; s-- {
		c.dqs[s].seq = 0
		c.dqFree = append(c.dqFree, int32(s))
	}
	c.dqHead, c.dqTail, c.dqLen = -1, -1, 0
	c.dqReady = c.dqReady[:0]
	c.dqAddrStores = c.dqAddrStores[:0]
	for r := range c.dqProd {
		c.dqProd[r] = -1
	}
}

// dqUnlink removes the entry in slot s from the age list (and from the
// known-address stores). The slot stays allocated until dqRelease.
func (c *Core) dqUnlink(s int32) {
	e := &c.dqs[s]
	if e.prev >= 0 {
		c.dqs[e.prev].next = e.next
	} else {
		c.dqHead = e.next
	}
	if e.next >= 0 {
		c.dqs[e.next].prev = e.prev
	} else {
		c.dqTail = e.prev
	}
	c.dqLen--
	if !e.in.Op.IsStore() {
		return
	}
	for i, st := range c.dqAddrStores {
		if st == s {
			last := len(c.dqAddrStores) - 1
			c.dqAddrStores[i] = c.dqAddrStores[last]
			c.dqAddrStores = c.dqAddrStores[:last]
			break
		}
	}
}

// dqRelease frees an unlinked slot.
func (c *Core) dqRelease(s int32) {
	c.dqs[s].seq = 0
	c.dqFree = append(c.dqFree, s)
}

// readyInsert adds slot s to dqReady, keeping it youngest first.
func (c *Core) readyInsert(s int32) {
	seq := c.dqs[s].seq
	c.dqReady = append(c.dqReady, s)
	i := len(c.dqReady) - 1
	for ; i > 0 && c.dqs[c.dqReady[i-1]].seq < seq; i-- {
		c.dqReady[i] = c.dqReady[i-1]
	}
	c.dqReady[i] = s
}

// wake delivers a resolved value to every operand on the consumer list
// headed by node, clearing their NA flags; entries left with no NA
// operand become ready. This is the DQ half of the hardware's fill
// broadcast (deliverRF is the register-file half).
func (c *Core) wake(node int32, v int64) {
	for node >= 0 {
		s := node >> 2
		e := &c.dqs[s]
		i := node & 3
		node = e.link[i]
		e.vals[i] = v
		e.isNA[i] = false
		if !(e.isNA[0] || e.isNA[1] || e.isNA[2]) {
			c.readyInsert(s)
		}
	}
}

// producerList returns the consumer-list head of the live producer of
// register r, whose seq is dep: the DQ entry dqProd[r] when it still
// holds dep, otherwise the pending result with that seq. Nil means the
// NA bit has no live producer, which deferral's invariant rules out.
func (c *Core) producerList(r uint8, dep uint64) *int32 {
	if s := c.dqProd[r]; s >= 0 && c.dqs[s].seq == dep {
		return &c.dqs[s].cons
	}
	lo, hi := 0, len(c.pend)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.pend[m].seq < dep {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.pend) && c.pend[lo].seq == dep {
		return &c.pend[lo].cons
	}
	return nil
}

// cutConsumers drops the operands of entries with seq >= cut from the
// front of the list headed by node and returns the new head.
func (c *Core) cutConsumers(node int32, cut uint64) int32 {
	for node >= 0 && c.dqs[node>>2].seq >= cut {
		node = c.dqs[node>>2].link[node&3]
	}
	return node
}

// squashDQ removes every entry with seq >= cut (a rollback's squash):
// surviving producers drop the squashed operands from their lists and
// reclaim dqProd for the registers the restored state still marks NA on
// them, the ready and known-address lists are filtered, and the
// squashed suffix of the age list is freed.
func (c *Core) squashDQ(cut uint64) {
	last := int32(-1)
	s := c.dqHead
	for ; s >= 0 && c.dqs[s].seq < cut; s = c.dqs[s].next {
		last = s
		e := &c.dqs[s]
		e.cons = c.cutConsumers(e.cons, cut)
		if rd, ok := e.in.DestReg(); ok && c.na[rd] && c.lastWriter[rd] == e.seq {
			c.dqProd[rd] = s
		}
	}
	for i := range c.pend {
		c.pend[i].cons = c.cutConsumers(c.pend[i].cons, cut)
	}
	n := 0
	for n < len(c.dqReady) && c.dqs[c.dqReady[n]].seq >= cut {
		n++
	}
	c.dqReady = c.dqReady[:copy(c.dqReady, c.dqReady[n:])]
	st := c.dqAddrStores[:0]
	for _, a := range c.dqAddrStores {
		if c.dqs[a].seq < cut {
			st = append(st, a)
		}
	}
	c.dqAddrStores = st
	for s >= 0 {
		next := c.dqs[s].next
		c.dqRelease(s)
		c.dqLen--
		s = next
	}
	c.dqTail = last
	if last >= 0 {
		c.dqs[last].next = -1
	} else {
		c.dqHead = -1
	}
}

// replay runs the deferred strand for one cycle: it executes up to
// budget entries whose operands have resolved, oldest first. Entries
// that are still waiting stay in the queue (hardware re-defers them).
// There is no ordering gate between deferred memory operations: loads
// replay optimistically (joining the read set) and stores — whose SSB
// slots are sequence-sorted — verify against the read set when their
// addresses resolve, rolling back on a true conflict. Independent miss
// chains therefore replay fully in parallel, and memory ordering is
// enforced without a disambiguation CAM.
//
// Deferred branches are verified here; a misprediction rolls the machine
// back to the enclosing checkpoint. Returns the number of entries
// replayed this cycle.
func (c *Core) replay(now uint64, budget int) int {
	replayed := 0
	for replayed < budget && c.mode == ModeSpec && len(c.dqReady) > 0 {
		last := len(c.dqReady) - 1
		s := c.dqReady[last]
		c.dqReady = c.dqReady[:last]
		// Unlink the entry before executing it so a rollback triggered
		// by the entry itself sees a consistent queue; the slot is freed
		// once the entry is done with.
		c.dqUnlink(s)
		c.resolveDirty = true
		c.activity++
		rolledBack := c.replayEntry(&c.dqs[s], now)
		c.dqRelease(s)
		replayed++
		c.stats.Replays++
		if rolledBack {
			break
		}
	}
	return replayed
}

// replayEntry executes one resolved DQ entry (already dequeued).
// It reports whether the entry failed speculation and rolled back.
func (c *Core) replayEntry(e *dqEntry, now uint64) (rolledBack bool) {
	in, vals := e.in, e.vals
	switch in.Op.Class() {
	case isa.ClassALU:
		v := isa.ALUResult(in, vals[0], vals[1])
		c.wake(e.cons, v)
		c.deliverRF(e.seq, in.Rd, v, now)

	case isa.ClassLoad:
		addr := uint64(vals[0] + int64(in.Imm))
		size := in.Op.MemWidth()
		// Optimistic with respect to older unreplayed stores: join the
		// read set so they can verify against this load.
		c.readSet = append(c.readSet, readRec{seq: e.seq, addr: addr, size: size})
		if c.secureReplayLoad(e, addr, size, now) {
			return false
		}
		raw := c.composeLoad(addr, size, e.seq)
		v := isa.ExtendLoad(in.Op, raw)
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, e.pc, now)
		c.stats.Loads++
		c.stats.CountLoadLevel(res.Level)
		c.noteSpecAccess(addr, e.seq, res)
		if c.isMiss(res, now) {
			// A dependent miss: becomes a pending result, and the
			// consumers in the DQ wait on it instead.
			c.pendInsert(pendingResult{seq: e.seq, rd: in.Rd, val: v, ready: res.Ready, cons: e.cons})
			c.stats.PendingMisses++
			return false
		}
		c.wake(e.cons, v)
		c.deliverRF(e.seq, in.Rd, v, now)

	case isa.ClassStore:
		addr := uint64(vals[0] + int64(in.Imm))
		if c.readSetConflict(e.seq, addr, in.Op.MemWidth()) {
			// A younger speculative load read this location before the
			// store resolved: it consumed stale data. Roll back to the
			// store's epoch (the store re-executes too).
			c.rollback(c.epochOf(e.seq), now, RbMemOrder)
			return true
		}
		if !c.ssbInsert(ssbEntry{seq: e.seq, addr: addr, size: in.Op.MemWidth(), val: vals[1]}) {
			// SSB overflow during replay cannot resolve by waiting
			// (draining needs this epoch to commit): fail speculation.
			c.rollback(c.epochOf(e.seq), now, RbSSB)
			return true
		}
		if c.cfg.SecureDelayOnMiss || c.cfg.SecureEagerSSBFlush {
			// A replayed store's address may be secret-derived: its
			// prefetch is the classic transmitter. Suppress it.
			c.stats.SecurePrefetchDenied++
		} else {
			res := c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
			c.noteSpecAccess(addr, e.seq, res)
		}

	case isa.ClassBranch:
		taken := isa.BranchTaken(in.Op, vals[0], vals[1])
		mis := taken != e.predTaken
		// Deferred branches train at replay resolution, with the history
		// the predictor holds NOW — not the fetch-time history (see the
		// training rule in package bpred). On a mispredict the rollback
		// below restores the checkpointed fetch-path history afterwards.
		c.m.Pred.TrainDeferredDir(e.pc, taken, mis)
		if mis {
			c.stats.DeferredBranchMispred++
			c.stats.BranchMispred++
			c.rollback(c.epochOf(e.seq), now, RbBranch)
			return true
		}

	case isa.ClassJump: // deferred jalr target verification
		target := uint64(vals[0] + int64(in.Imm))
		c.m.Pred.TrainDeferredTarget(e.pc, target)
		if target != e.predTarget {
			c.stats.BranchMispred++
			c.rollback(c.epochOf(e.seq), now, RbJalr)
			return true
		}
	}
	// Stores, branches and jumps produce no register value (the jalr
	// link register is written at defer time), so nothing waits on their
	// sequence numbers and there is no value to forward.
	return false
}
