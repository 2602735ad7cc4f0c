package ooo

import (
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// issue selects up to IssueWidth ready instructions among the IQSize
// oldest unissued entries and executes them, returning how many issued.
// The window is the unissued list, walked oldest first; an entry is
// ready once its wakeAt has passed. A squash cuts the list behind the
// issuing entry, so the walk carries on over exactly the survivors.
func (c *Core) issue(now uint64) int {
	issued := 0
	examined := 0
	c.wakeMin = never
	for s := c.uHead; s >= 0 && issued < c.cfg.IssueWidth && examined < c.cfg.IQSize; {
		q := &c.iq[s]
		examined++
		if q.wakeAt > now {
			c.wakeMin = min(c.wakeMin, q.wakeAt)
			s = q.next
			continue
		}
		e := &c.rob[s]
		if !c.tryExecute(e, now) {
			s = q.next
			continue
		}
		issued++
		c.wake(e)
		next := q.next
		c.unlinkUnissued(s)
		s = next
	}
	if issued == 0 && c.count > 0 {
		c.stats.EmptyIssueCycles++
	}
	return issued
}

// wake delivers producer p's readyAt to every operand waiting on it;
// a consumer whose last pending producer this was becomes wakeable.
func (c *Core) wake(p *robEntry) {
	for w := p.waiters; w >= 0; w = c.rob[w>>2].src[w&3].next {
		q := &c.iq[w>>2]
		q.opsAt = max(q.opsAt, p.readyAt)
		if q.pending--; q.pending == 0 {
			q.wakeAt = q.opsAt
		}
	}
	p.waiters = -1
}

// operands returns the source values of a ready entry e: an in-flight
// producer's result, or the committed register file once the producer
// has retired.
func (c *Core) operands(e *robEntry) [3]int64 {
	var vals [3]int64
	for i := 0; i < e.nsrc; i++ {
		src := &e.src[i]
		if src.hasTag {
			if p := c.entryBySeq(src.tag); p != nil {
				vals[i] = p.value
				continue
			}
		}
		if src.reg != isa.RegZero {
			vals[i] = c.regs[src.reg]
		}
	}
	return vals
}

// tryExecute attempts to issue the ready entry e. It returns true if
// the entry issued this cycle.
func (c *Core) tryExecute(e *robEntry, now uint64) bool {
	in := e.in
	vals := c.operands(e)
	switch in.Op.Class() {
	case isa.ClassNop, isa.ClassHalt:
		e.value = 0
		e.readyAt = now
	case isa.ClassBarrier:
		// Serializing: only at the head.
		if e.seq != c.headSeq {
			return false
		}
		e.readyAt = now + 1
	case isa.ClassALU:
		e.value = isa.ALUResult(in, vals[0], vals[1])
		e.readyAt = now + uint64(in.Op.Latency())
	case isa.ClassLoad:
		return c.issueLoad(e, vals[0], now)
	case isa.ClassStore:
		e.addr = uint64(vals[0] + int64(in.Imm))
		e.msize = in.Op.MemWidth()
		e.storeVal = vals[1]
		e.addrValid = true
		e.readyAt = now + 1
		e.executed = true
		c.checkViolations(e, now)
		return true
	case isa.ClassBranch:
		taken := isa.BranchTaken(in.Op, vals[0], vals[1])
		mis := taken != e.predTaken
		c.m.Pred.UpdateDir(e.pc, taken, mis)
		c.stats.Branches++
		e.readyAt = now + 1
		e.executed = true
		if mis {
			c.stats.BranchMispred++
			c.stats.Squashes++
			target := e.pc + isa.InstSize
			if taken {
				target = in.BranchTarget(e.pc)
			}
			c.squashAfter(e.seq, target, now, c.cfg.MispredictPenalty)
		}
		return true
	case isa.ClassJump:
		e.value = int64(e.pc + isa.InstSize)
		e.readyAt = now + 1
		e.executed = true
		if in.Op == isa.OpJalr {
			target := uint64(vals[0] + int64(in.Imm))
			c.m.Pred.UpdateTarget(e.pc, target)
			switch {
			case c.fetchBlocked && c.fetchBlockedSeq == e.seq:
				c.fetchBlocked = false
				c.fe.Redirect(target, now, c.cfg.TakenPenalty)
			case e.hasPredTgt && e.predTarget != target:
				c.stats.BranchMispred++
				c.stats.Squashes++
				c.squashAfter(e.seq, target, now, c.cfg.MispredictPenalty)
			}
		}
		return true
	case isa.ClassAtomic:
		// Atomics execute non-speculatively at the ROB head.
		if e.seq != c.headSeq {
			return false
		}
		addr := uint64(vals[0])
		res := c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
		old := int64(c.m.Mem.Read(addr, 8))
		if old == vals[1] {
			c.m.Mem.Write(addr, 8, uint64(vals[2]))
			c.m.StoreVisible(addr)
		}
		e.value = old
		e.addr = addr
		e.msize = 8
		e.addrValid = true
		e.readyAt = res.Ready
	case isa.ClassPrefetch:
		c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, uint64(vals[0]+int64(in.Imm)), now)
		e.readyAt = now
	case isa.ClassTx:
		// No transactional hardware: flat execution, always succeeds
		// (txbegin's destination commits as zero).
		e.value = 0
		e.readyAt = now + 1
	}
	e.executed = true
	return true
}

// issueLoad handles disambiguation, forwarding and timing for a load.
func (c *Core) issueLoad(e *robEntry, base int64, now uint64) bool {
	in := e.in
	addr := uint64(base + int64(in.Imm))
	size := in.Op.MemWidth()

	// Disambiguation against older stores: the store FIFO up to the
	// position this load recorded at fetch.
	if !c.cfg.SpecLoads {
		for p := c.stores.head; p < e.memPos; p++ {
			if !c.rob[c.stores.at(p)&c.mask].addrValid {
				return false // conservative: wait for the store to issue
			}
		}
	}

	// Compose the value: architectural memory overlaid with older
	// in-flight stores (program order), byte by byte. Fixed-size scratch:
	// MemWidth is at most 8, and stack arrays keep the hot load path
	// allocation-free.
	var bufArr [8]byte
	var fromArr [8]bool
	buf := bufArr[:size]
	fromStore := fromArr[:size]
	raw := c.m.Mem.Read(addr, size)
	for i := 0; i < size; i++ {
		buf[i] = byte(raw >> (8 * i))
	}
	forwardedAll := size > 0
	for p := c.stores.head; p < e.memPos; p++ {
		s := &c.rob[c.stores.at(p)&c.mask]
		if !s.addrValid {
			continue
		}
		overlayStore(buf, fromStore, addr, s.addr, s.msize, s.storeVal)
	}
	for _, f := range fromStore {
		if !f {
			forwardedAll = false
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	e.value = isa.ExtendLoad(in.Op, v)
	e.addr = addr
	e.msize = size
	e.addrValid = true

	if forwardedAll {
		e.readyAt = now + 1
	} else {
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, e.pc, now)
		e.readyAt = res.Ready
		c.stats.CountLoadLevel(res.Level)
	}
	c.stats.Loads++
	e.executed = true
	return true
}

// overlayStore copies the bytes of a store that overlap the load window
// [base, base+len(buf)) into buf.
func overlayStore(buf []byte, from []bool, base, saddr uint64, ssize int, sval int64) {
	for b := 0; b < ssize; b++ {
		a := saddr + uint64(b)
		if a >= base && a < base+uint64(len(buf)) {
			buf[a-base] = byte(uint64(sval) >> (8 * b))
			from[a-base] = true
		}
	}
}

// checkViolations detects younger loads that issued speculatively past
// this store and read stale data; the oldest violator and everything
// younger are squashed and refetched.
func (c *Core) checkViolations(st *robEntry, now uint64) {
	if !c.cfg.SpecLoads {
		return
	}
	for p := st.memPos; p < c.loads.tail; p++ {
		l := &c.rob[c.loads.at(p)&c.mask]
		if !l.addrValid { // not issued yet
			continue
		}
		if rangesOverlap(l.addr, l.msize, st.addr, st.msize) {
			c.stats.MemOrderViolations++
			c.stats.Squashes++
			// Squash from the violating load (inclusive) and refetch it.
			c.squashAfter(l.seq-1, l.pc, now, c.cfg.MispredictPenalty)
			return
		}
	}
}

func rangesOverlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}
