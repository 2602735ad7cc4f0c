// Package ooo implements the out-of-order baseline core: fetch along the
// predicted path, register renaming over a reorder buffer, a bounded
// issue window, a load/store queue with store-to-load forwarding and
// (optionally) speculative memory disambiguation with violation squash,
// and in-order commit. This is the "larger, higher-powered out-of-order
// core" the SST paper compares against; it embodies exactly the
// structures SST claims to eliminate (rename logic, reorder buffer,
// disambiguation buffer, large issue window).
package ooo

import (
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// Config parameterizes the out-of-order core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IQSize      int // issue-window: oldest unissued instructions considered
	LSQSize     int // maximum memory operations in flight in the ROB
	// SpecLoads lets loads issue past older stores with unknown
	// addresses; a later conflicting store squashes and refetches.
	SpecLoads bool
	// TakenPenalty is the fetch bubble for predicted-taken control flow.
	TakenPenalty uint64
	// MispredictPenalty is the redirect bubble after a branch resolves
	// against its prediction (models pipeline refill depth).
	MispredictPenalty uint64
}

// SmallConfig returns a modest 2-wide out-of-order core.
func SmallConfig() Config {
	return Config{
		FetchWidth: 2, IssueWidth: 2, CommitWidth: 2,
		ROBSize: 32, IQSize: 16, LSQSize: 16,
		SpecLoads:    true,
		TakenPenalty: 1, MispredictPenalty: 10,
	}
}

// LargeConfig returns an aggressive 4-wide out-of-order core — the
// paper's larger, higher-powered comparison point.
func LargeConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 128, IQSize: 64, LSQSize: 64,
		SpecLoads:    true,
		TakenPenalty: 1, MispredictPenalty: 14,
	}
}

// Stats extends the common statistics with out-of-order events.
type Stats struct {
	cpu.BaseStats
	Squashes           uint64 // control mispredict squashes
	MemOrderViolations uint64 // disambiguation squashes
	WrongPathInsts     uint64 // fetched then squashed
	ROBFullCycles      uint64
	FetchStallCycles   uint64
	EmptyIssueCycles   uint64 // cycles with nothing ready to issue
}

// PublishObs publishes the common core counter set plus the out-of-order
// event breakdown under "ooo/".
func (s *Stats) PublishObs(r *obs.Registry) {
	s.BaseStats.PublishObs(r)
	r.Counter("ooo/squashes").Set(s.Squashes)
	r.Counter("ooo/mem_order_violations").Set(s.MemOrderViolations)
	r.Counter("ooo/wrong_path_insts").Set(s.WrongPathInsts)
	r.Counter("ooo/stall/rob_full").Set(s.ROBFullCycles)
	r.Counter("ooo/stall/fetch").Set(s.FetchStallCycles)
	r.Counter("ooo/stall/empty_issue").Set(s.EmptyIssueCycles)
}

type source struct {
	tag    uint64 // producing seq, valid when hasTag
	reg    uint8
	hasTag bool
	// next links the producer's wakeup list: the operand node (see
	// robEntry.waiters) of the next older consumer waiting on the same
	// producer, or -1.
	next int32
}

type robEntry struct {
	seq uint64
	in  isa.Inst
	pc  uint64

	src  [3]source
	nsrc int

	// waiters heads this entry's wakeup list: operand nodes slot<<2|src
	// of younger entries waiting on its result, newest first, or -1.
	waiters int32
	// memPos places a memory operation against the other kind's FIFO:
	// for a load, the store FIFO tail at fetch (its older stores end
	// there); for a store, the load FIFO tail (its younger loads start
	// there).
	memPos uint64

	executed bool   // issued; result value computed
	readyAt  uint64 // cycle the result is usable / entry committable
	value    int64  // destination value

	// Memory state.
	addrValid bool
	addr      uint64
	msize     int
	storeVal  int64

	// Control prediction made at fetch.
	predTaken  bool
	predTarget uint64
	hasPredTgt bool
}

// iqNode is an unissued entry's place in the issue window, kept in an
// array beside the ROB (same slot) so the window walk touches a few
// bytes per entry rather than a whole robEntry. pending counts source
// producers that have not yet executed and opsAt is the latest readyAt
// among those that have; wakeAt, the one number the walk checks, is
// opsAt once nothing is pending and never before. prev/next link the
// unissued entries in age order (slots, -1 = none); an entry leaves the
// list when it issues or is squashed.
type iqNode struct {
	wakeAt     uint64
	opsAt      uint64
	prev, next int32
	pending    uint8
}

// never is the wakeAt of an entry still waiting for a producer.
const never = ^uint64(0)

// seqFIFO is an age-ordered queue of the sequence numbers of in-flight
// loads or stores. Positions are absolute (they only grow, except when
// a squash cuts the tail), so an entry can record where its neighbours
// of the other kind begin; the buffer is the ROB's power-of-two size.
type seqFIFO struct {
	seq        []uint64
	head, tail uint64
}

func (f *seqFIFO) at(pos uint64) uint64 { return f.seq[pos&uint64(len(f.seq)-1)] }

func (f *seqFIFO) push(seq uint64) {
	f.seq[f.tail&uint64(len(f.seq)-1)] = seq
	f.tail++
}

// cut drops every queued seq younger than seq from the tail.
func (f *seqFIFO) cut(seq uint64) {
	for f.tail > f.head && f.at(f.tail-1) > seq {
		f.tail--
	}
}

// Core is the out-of-order pipeline model.
type Core struct {
	cfg Config
	m   *cpu.Machine
	fe  *cpu.Frontend

	regs   [isa.NumRegs]int64 // committed architectural state
	regTag [isa.NumRegs]uint64
	tagOK  [isa.NumRegs]bool

	// rob is a ring of a power-of-two size >= ROBSize: the entry with
	// sequence number seq lives in slot seq&mask, so the ring needs no
	// head index and no division.
	rob     []robEntry
	mask    uint64
	count   int
	headSeq uint64 // seq of the oldest entry
	nextSeq uint64
	memOps  int // loads+stores currently in the ROB

	// Issue window: the unissued entries in age order (slots, -1 =
	// empty), linked through iq. wakeMin is the earliest wakeAt after
	// the current cycle among the entries the last issue scan examined
	// (never = none); it feeds nextTimer.
	iq           []iqNode
	uHead, uTail int32
	wakeMin      uint64
	// In-flight loads and stores, in age order.
	loads, stores seqFIFO

	// Fetch blocking conditions.
	fetchBlockedSeq uint64 // waiting for this jalr to resolve
	fetchBlocked    bool
	fetchGarbage    bool // decode failed on (presumed) wrong path
	haltFetched     bool

	cycle uint64
	done  bool
	err   error

	stats Stats
	sink  obs.Sink
	occ   [2]int

	// Fast-forward state, valid while cycle < ffNext: the last Step was a
	// pure stall (nothing committed, issued or fetched) whose per-cycle
	// stall charges were ffRobFull/ffFetchStall/ffEmptyIssue with ffMLP
	// outstanding data misses. Self-expiring once the clock reaches
	// ffNext.
	ffNext       uint64
	ffRobFull    uint64
	ffFetchStall uint64
	ffEmptyIssue uint64
	ffMLP        int
}

var _ cpu.FastForwarder = (*Core)(nil)

// oooOccNames are the occupancy tracks reported through the sink.
var oooOccNames = []string{"rob", "memops"}

// SetSink installs an observability sink (nil disables).
func (c *Core) SetSink(s obs.Sink) {
	c.sink = s
	if s != nil {
		s.Attach("ooo", oooOccNames)
	}
}

// New creates an out-of-order core executing from entry.
func New(m *cpu.Machine, cfg Config, entry uint64) *Core {
	if cfg.FetchWidth < 1 {
		cfg.FetchWidth = 1
	}
	if cfg.IssueWidth < 1 {
		cfg.IssueWidth = 1
	}
	if cfg.CommitWidth < 1 {
		cfg.CommitWidth = 1
	}
	if cfg.ROBSize < 2 {
		cfg.ROBSize = 2
	}
	if cfg.IQSize < 1 {
		cfg.IQSize = 1
	}
	if cfg.LSQSize < 1 {
		cfg.LSQSize = 1
	}
	n := 1
	for n < cfg.ROBSize {
		n <<= 1
	}
	return &Core{
		cfg:     cfg,
		m:       m,
		fe:      cpu.NewFrontend(m, entry),
		rob:     make([]robEntry, n),
		mask:    uint64(n - 1),
		iq:      make([]iqNode, n),
		uHead:   -1,
		uTail:   -1,
		wakeMin: never,
		loads:   seqFIFO{seq: make([]uint64, n)},
		stores:  seqFIFO{seq: make([]uint64, n)},
	}
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the program has halted.
func (c *Core) Done() bool { return c.done }

// Retired returns committed instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Base returns the common statistics block.
func (c *Core) Base() *cpu.BaseStats { return &c.stats.BaseStats }

// Stats returns the full out-of-order statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns a fatal simulation error, if any.
func (c *Core) Err() error { return c.err }

// Regs returns the committed register file (for test validation).
func (c *Core) Regs() [isa.NumRegs]int64 { return c.regs }

func (c *Core) at(i int) *robEntry { return &c.rob[(c.headSeq+uint64(i))&c.mask] }

// entryBySeq returns the ROB entry with the given seq, or nil if it has
// already committed or been squashed.
func (c *Core) entryBySeq(seq uint64) *robEntry {
	if seq < c.headSeq {
		return nil
	}
	i := int(seq - c.headSeq)
	if i >= c.count {
		return nil
	}
	return c.at(i)
}

// Step advances the core one cycle: commit, issue/execute, fetch.
func (c *Core) Step() {
	now := c.cycle
	retiredBefore := c.stats.Retired
	seqBefore := c.nextSeq
	robFull0, fetchStall0, empty0 := c.stats.ROBFullCycles, c.stats.FetchStallCycles, c.stats.EmptyIssueCycles
	c.commit(now)
	issued := 0
	if !c.done && c.err == nil {
		issued = c.issue(now)
		c.fetch(now)
	}
	outstanding := c.m.Hier.OutstandingDataMisses(c.m.CoreID, now)
	c.stats.SampleMLP(outstanding)
	if c.stats.Retired > retiredBefore {
		c.stats.CPI[cpu.BktRetire]++
	} else {
		c.stats.CPI[c.stallBucket(outstanding)]++
	}
	if c.sink != nil {
		c.occ[0], c.occ[1] = c.count, c.memOps
		c.sink.CycleState(now, "normal", int(c.stats.Retired-retiredBefore), 0, c.occ[:])
	}
	c.stats.Cycles++
	c.cycle++

	if c.stats.Retired == retiredBefore && issued == 0 && c.nextSeq == seqBefore && !c.done && c.err == nil {
		// Pure stall: commit, issue and fetch all made zero progress, so
		// the only per-cycle effects were the stall charges below — and
		// they repeat unchanged until the earliest pending timer fires.
		c.ffRobFull = c.stats.ROBFullCycles - robFull0
		c.ffFetchStall = c.stats.FetchStallCycles - fetchStall0
		c.ffEmptyIssue = c.stats.EmptyIssueCycles - empty0
		c.ffMLP = outstanding
		c.ffNext = c.nextTimer(now)
	} else {
		c.ffNext = 0
	}
}

// stallBucket attributes a no-retire cycle by the head-of-ROB blocker:
// an empty ROB is a frontend problem, outstanding data misses mean the
// memory system is the wait, and anything else is a short-latency
// dependency chain (issue-window scoreboarding). The inputs (ROB count,
// outstanding misses) are exactly the quantities the fast-forward purity
// proof holds constant, so SkipTo can replay the same attribution.
func (c *Core) stallBucket(outstanding int) cpu.Bucket {
	switch {
	case c.count == 0:
		return cpu.BktFetch
	case outstanding > 0:
		return cpu.BktMSHR
	default:
		return cpu.BktScoreboard
	}
}

// nextTimer returns the earliest cycle strictly after now at which a
// pure-stall cycle's state can change: the head's result landing (which
// unblocks commit), an examined window entry's operands becoming ready
// (wakeMin, recorded by this cycle's issue scan), a fetch-line
// delivery, or an in-flight L1D fill expiring (which changes MLP
// accounting). Other executed entries' results change nothing until
// the head commits or something issues: commit is in order, and a
// window entry that is ready but did not issue (a barrier or atomic
// off the head, a load waiting for an older store's address) waits on
// exactly those events. 0 = no timer pending; a wedged core then falls
// back to naive stepping and the livelock watchdog.
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	if c.wakeMin != never {
		bound(c.wakeMin)
	}
	if c.count > 0 {
		if h := c.at(0); h.executed {
			bound(h.readyAt)
		}
	}
	bound(c.fe.NextDelivery(now))
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	return next
}

// NextEvent implements cpu.FastForwarder (see inorder.Core.NextEvent).
func (c *Core) NextEvent() uint64 {
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return 0
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target.
func (c *Core) SkipTo(target uint64) {
	n := target - c.cycle
	c.stats.ROBFullCycles += c.ffRobFull * n
	c.stats.FetchStallCycles += c.ffFetchStall * n
	c.stats.EmptyIssueCycles += c.ffEmptyIssue * n
	c.stats.CPI[c.stallBucket(c.ffMLP)] += n
	if c.ffMLP > 0 {
		c.stats.MLPSamples += n
		c.stats.MLPSum += uint64(c.ffMLP) * n
	}
	if c.sink != nil {
		c.occ[0], c.occ[1] = c.count, c.memOps
		obs.EmitCycleRun(c.sink, c.cycle, target, "normal", c.occ[:])
	}
	c.stats.Cycles += n
	c.cycle = target
}

// fetch brings up to FetchWidth instructions into the ROB along the
// predicted path.
func (c *Core) fetch(now uint64) {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchBlocked || c.fetchGarbage || c.haltFetched {
			return
		}
		if c.count >= c.cfg.ROBSize {
			c.stats.ROBFullCycles++
			return
		}
		if c.fe.Stalled(now) {
			return
		}
		in, pc, ok, err := c.fe.Next(now)
		if err != nil {
			// Decode failure: assume wrong-path garbage and wait for a
			// squash to redirect fetch. A genuine illegal instruction
			// surfaces as a cycle-limit error in the harness.
			c.fetchGarbage = true
			return
		}
		if !ok {
			c.stats.FetchStallCycles++
			return
		}
		if in.Op.IsMem() && c.memOps >= c.cfg.LSQSize {
			return
		}

		e := c.push(in, pc)
		redirected := false

		switch in.Op.Class() {
		case isa.ClassBranch:
			e.predTaken = c.m.Pred.PredictDir(pc)
			if e.predTaken {
				c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
				redirected = true
			}
		case isa.ClassJump:
			if in.Op == isa.OpJal {
				if in.Rd == isa.RegRA {
					c.m.Pred.PushReturn(pc + isa.InstSize)
				}
				c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
				redirected = true
			} else {
				var tgt uint64
				var have bool
				if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
					tgt, have = c.m.Pred.PopReturn()
				} else {
					tgt, have = c.m.Pred.PredictTarget(pc)
				}
				if in.Rd == isa.RegRA {
					c.m.Pred.PushReturn(pc + isa.InstSize)
				}
				if have {
					e.predTarget, e.hasPredTgt = tgt, true
					c.fe.Redirect(tgt, now, c.cfg.TakenPenalty)
					redirected = true
				} else {
					// No target prediction: block fetch until it resolves.
					c.fetchBlocked = true
					c.fetchBlockedSeq = e.seq
				}
			}
		case isa.ClassHalt:
			c.haltFetched = true
		}

		// Rename: record this entry as the latest producer.
		if rd, has := in.DestReg(); has {
			c.regTag[rd] = e.seq
			c.tagOK[rd] = true
		}
		if !redirected {
			c.fe.Advance()
		}
		if redirected {
			return // redirect consumes the rest of the fetch group
		}
	}
}

// captureSources records, per source register, either a dependence tag
// on an in-flight producer or the fact that the committed register file
// will hold the value. An operand whose producer has already executed
// folds the producer's readyAt into opsAt; one whose producer has not
// joins that producer's wakeup list and counts as pending.
func (c *Core) captureSources(e *robEntry, q *iqNode) {
	srcs, n := e.in.SrcRegs()
	e.nsrc = n
	for i := 0; i < n; i++ {
		r := srcs[i]
		s := &e.src[i]
		*s = source{reg: r, next: -1}
		if r == isa.RegZero || !c.tagOK[r] {
			continue
		}
		s.tag, s.hasTag = c.regTag[r], true
		p := &c.rob[s.tag&c.mask]
		if p.executed {
			q.opsAt = max(q.opsAt, p.readyAt)
			continue
		}
		s.next = p.waiters
		p.waiters = int32(e.seq&c.mask)<<2 | int32(i)
		q.pending++
	}
	q.wakeAt = never
	if q.pending == 0 {
		q.wakeAt = q.opsAt
	}
}

// push builds the next ROB entry in its slot, captures its sources
// (before the caller renames its destination) and links it into the
// issue window and, for a load or store, the memory FIFOs.
func (c *Core) push(in isa.Inst, pc uint64) *robEntry {
	slot := int32(c.nextSeq & c.mask)
	e := &c.rob[slot]
	*e = robEntry{}
	e.seq, e.in, e.pc = c.nextSeq, in, pc
	e.waiters = -1
	q := &c.iq[slot]
	*q = iqNode{prev: c.uTail, next: -1}
	c.captureSources(e, q)
	if c.uTail >= 0 {
		c.iq[c.uTail].next = slot
	} else {
		c.uHead = slot
	}
	c.uTail = slot
	switch {
	case in.Op.IsLoad():
		e.memPos = c.stores.tail
		c.loads.push(e.seq)
	case in.Op.IsStore():
		e.memPos = c.loads.tail
		c.stores.push(e.seq)
	}
	if in.Op.IsMem() {
		c.memOps++
	}
	c.count++
	c.nextSeq++
	return e
}

// unlinkUnissued removes the entry at slot from the issue window.
func (c *Core) unlinkUnissued(slot int32) {
	q := &c.iq[slot]
	if q.prev >= 0 {
		c.iq[q.prev].next = q.next
	} else {
		c.uHead = q.next
	}
	if q.next >= 0 {
		c.iq[q.next].prev = q.prev
	} else {
		c.uTail = q.prev
	}
}

// commit retires up to CommitWidth completed instructions from the head.
func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := c.at(0)
		if !e.executed || e.readyAt > now {
			return
		}
		in := e.in
		if rd, has := in.DestReg(); has {
			c.regs[rd] = e.value
			if c.tagOK[rd] && c.regTag[rd] == e.seq {
				c.tagOK[rd] = false
			}
		}
		switch in.Op.Class() {
		case isa.ClassStore:
			c.m.Mem.Write(e.addr, e.msize, uint64(e.storeVal))
			c.m.Hier.Access(c.m.CoreID, mem.AccWrite, e.addr, now)
			c.m.StoreVisible(e.addr)
			c.stats.Stores++
		case isa.ClassAtomic:
			// The memory side already executed at issue (head-only).
			c.stats.Stores++
		case isa.ClassHalt:
			c.done = true
		}
		c.stats.Retired++
		if in.Op.IsMem() {
			c.memOps--
		}
		switch {
		case in.Op.IsLoad():
			c.loads.head++
		case in.Op.IsStore():
			c.stores.head++
		}
		c.count--
		c.headSeq++
		if c.done {
			return
		}
	}
}

// squashAfter removes every entry younger than seq (exclusive: seq
// survives) and redirects fetch to target with the given penalty.
func (c *Core) squashAfter(seq uint64, target uint64, now, penalty uint64) {
	keep := int(seq-c.headSeq) + 1
	if keep < 0 {
		keep = 0
	}
	for i := keep; i < c.count; i++ {
		e := c.at(i)
		if e.in.Op.IsMem() {
			c.memOps--
		}
		c.stats.WrongPathInsts++
	}
	c.count = keep
	c.nextSeq = c.headSeq + uint64(keep)
	// Cut the squashed entries out of the issue window and the memory
	// FIFOs, then out of the wakeup lists of the producers still in the
	// window. Those are the only lists left: wake empties a producer's
	// list when it issues, and the squashing entry leaves the window
	// only after the squash. Each list is newest first, so its squashed
	// consumers are a prefix.
	for c.uTail >= 0 && c.rob[c.uTail].seq > seq {
		c.unlinkUnissued(c.uTail)
	}
	c.loads.cut(seq)
	c.stores.cut(seq)
	for s := c.uHead; s >= 0; s = c.iq[s].next {
		p := &c.rob[s]
		for w := p.waiters; w >= 0 && c.rob[w>>2].seq > seq; w = p.waiters {
			p.waiters = c.rob[w>>2].src[w&3].next
		}
	}
	// Rebuild the rename map from surviving entries.
	for i := range c.tagOK {
		c.tagOK[i] = false
	}
	for i := 0; i < c.count; i++ {
		e := c.at(i)
		if rd, has := e.in.DestReg(); has {
			c.regTag[rd] = e.seq
			c.tagOK[rd] = true
		}
	}
	c.fetchBlocked = false
	c.fetchGarbage = false
	c.haltFetched = false
	for i := 0; i < c.count; i++ {
		if c.at(i).in.Op.Class() == isa.ClassHalt {
			c.haltFetched = true
		}
	}
	c.fe.Redirect(target, now, penalty)
}
