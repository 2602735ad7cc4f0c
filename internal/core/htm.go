package core

import (
	"fmt"

	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// ROCK's hardware transactional memory reuses the SST machinery: a
// transaction is a software-controlled speculation epoch. txbegin takes
// the register checkpoint, transactional stores wait in the speculative
// store buffer, the read set is tracked for remote-conflict detection,
// and an abort is a rollback whose "mispredicted branch" is the
// transaction itself. While a transaction is open the core runs in
// normal mode with the checkpoint hardware occupied — exactly ROCK's
// constraint that a strand has one checkpoint to spend — so cache misses
// inside a transaction stall on use rather than opening SST epochs.

// Transaction abort codes, delivered in txbegin's destination register.
const (
	TxAbortConflict    int64 = 1 // a remote store hit the read or write set
	TxAbortCapacity    int64 = 2 // read-set or store-buffer overflow
	TxAbortUnsupported int64 = 3 // cas/membar inside a transaction
	TxAbortNested      int64 = 4 // txbegin inside a transaction
)

// txMaxReadLines bounds the tracked read set, modeling the L1's
// speculative-read bits (512 lines = a 32KB L1's worth).
const txMaxReadLines = 512

// TxStats counts transactional events.
type TxStats struct {
	Begins       uint64
	Commits      uint64
	Aborts       uint64
	AbortsByCode [5]uint64
}

type txState struct {
	active   bool
	ckpt     checkpoint // register snapshot at txbegin
	handler  uint64     // abort target
	rd       uint8      // abort-code register
	startSeq uint64
	reads    map[uint64]struct{} // line-granular read set
	abort    int64               // pending abort code (0 = none)
}

// lineAddr aligns addr to the coherence line size.
func (c *Core) lineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.m.Hier.Config().L2.LineBytes) - 1)
}

// aheadTx handles txbegin/txcommit on the ahead strand.
func (c *Core) aheadTx(in isa.Inst, pc uint64, seq uint64, now uint64) (cont, redirected bool) {
	if c.mode != ModeNormal {
		// Serialize with SST speculation: wait until every epoch
		// commits (or scout rolls back) before touching transactions.
		c.stall(stallAtomic)
		return false, false
	}
	if in.Op == isa.OpTxBegin {
		if c.tx.active {
			// Nesting is not supported: abort the outer transaction.
			c.tx.abort = TxAbortNested
			c.txAbort(now)
			return true, true
		}
		c.installInvalListener()
		c.tx = txState{
			active:   true,
			handler:  in.BranchTarget(pc),
			rd:       in.Rd,
			startSeq: seq,
			reads:    make(map[uint64]struct{}),
		}
		c.tx.ckpt = checkpoint{
			startSeq:   seq,
			pc:         pc,
			regs:       c.regs,
			na:         c.na,
			lastWriter: c.lastWriter,
			readyAt:    c.readyAt,
			ghr:        c.m.Pred.History(),
			processed:  c.processed,
		}
		c.write(in.Rd, 0, now+1, seq)
		c.stats.Tx.Begins++
		if c.sink != nil {
			c.sink.SpanBegin(now, "tx", "tx", seq)
			c.sink.Event(now, "tx", "txbegin", fmt.Sprintf("pc=%#x", pc))
		}
		return true, false
	}
	// txcommit.
	if !c.tx.active {
		return true, false // stray commit: architecturally a no-op
	}
	// Wait for in-flight reads to settle (scoreboarded misses resolve
	// by time; nothing else is outstanding in normal mode).
	c.drainSSB(^uint64(0), now)
	if c.sink != nil {
		c.sink.SpanEnd(now, "tx", c.tx.startSeq)
		c.sink.Event(now, "tx", "txcommit", "stores published")
	}
	c.tx.active = false
	c.tx.reads = nil
	c.stats.Tx.Commits++
	return true, false
}

// txAbort rolls architectural state back to the txbegin and transfers
// control to the handler with the abort code.
func (c *Core) txAbort(now uint64) {
	c.activity++
	code := c.tx.abort
	ck := c.tx.ckpt
	c.regs = ck.regs
	c.na = ck.na
	c.lastWriter = ck.lastWriter
	c.readyAt = ck.readyAt
	c.m.Pred.SetHistory(ck.ghr)
	// The transaction's instructions executed in normal mode and were
	// counted as retired; the abort architecturally undoes them.
	c.stats.DiscardedInsts += c.processed - ck.processed
	c.stats.Retired -= c.processed - ck.processed
	c.processed = ck.processed
	// Drop the transaction's buffered stores.
	ssb := c.ssb[:0]
	for _, e := range c.ssb {
		if e.seq < c.tx.startSeq {
			ssb = append(ssb, e)
		}
	}
	c.ssb = ssb
	handler, rd := c.tx.handler, c.tx.rd
	if c.sink != nil {
		c.sink.SpanEnd(now, "tx", c.tx.startSeq)
		c.sink.Event(now, "tx", "txabort", fmt.Sprintf("code=%d", code))
	}
	c.tx = txState{}
	c.write(rd, code, now+1, c.seq)
	c.stats.Tx.Aborts++
	if code >= 0 && int(code) < len(c.stats.Tx.AbortsByCode) {
		c.stats.Tx.AbortsByCode[code]++
	}
	c.fe.Redirect(handler, now, c.cfg.RollbackPenalty)
}

// txTrackLoad records a transactional read and enforces the read-set
// capacity. Returns false if the transaction aborted.
func (c *Core) txTrackLoad(addr uint64, size int) bool {
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint64(size) - 1)
	for line := first; ; line += uint64(c.m.Hier.Config().L2.LineBytes) {
		c.tx.reads[line] = struct{}{}
		if line == last {
			break
		}
	}
	if len(c.tx.reads) > txMaxReadLines {
		c.tx.abort = TxAbortCapacity
		return false
	}
	return true
}

// txStore buffers a transactional store in the SSB. Returns false if the
// transaction aborted (capacity).
func (c *Core) txStore(seq uint64, addr uint64, size int, val int64, now uint64) bool {
	if !c.ssbInsert(ssbEntry{seq: seq, addr: addr, size: size, val: val}) {
		c.tx.abort = TxAbortCapacity
		return false
	}
	c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
	return true
}
