package core

import (
	"fmt"
	"strings"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
)

// pinnedScenario is one deferred-queue program of TestDQTimingPinned:
// gen emits the code, init seeds the data it reads, and exercised
// checks that a run really took the path the scenario exists for.
type pinnedScenario struct {
	name      string
	gen       func(b *asm.Builder)
	init      func(m *cpu.Machine)
	exercised func(s *Stats, secure bool) bool
}

var pinnedScenarios = []pinnedScenario{
	{
		// One miss per round feeds several DQ consumers: the value in
		// operand slot 0, slot 1, both slots, as store data under a known
		// address, and a load that the known-address store blocks.
		name: "fanout",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			b.Movi(9, 3)
			for k := int32(0); k < 4; k++ {
				off := k * 0x1040
				b.Ld(isa.OpLd64, 2, 1, off) // miss
				b.Op(isa.OpAdd, 3, 2, 9)    // slot 0
				b.Op(isa.OpSub, 4, 9, 2)    // slot 1
				b.Op(isa.OpAdd, 5, 2, 2)    // both slots
				b.St(isa.OpSt64, 2, 1, off+256)
				b.Ld(isa.OpLd64, 6, 1, off+256) // blocked by the deferred store
				b.Op(isa.OpAdd, 10, 10, 3)
				b.Op(isa.OpAdd, 10, 10, 4)
				b.Op(isa.OpAdd, 10, 10, 5)
				b.Op(isa.OpAdd, 10, 10, 6)
			}
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 4; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 7+k)
			}
		},
		exercised: func(s *Stats, _ bool) bool { return s.Deferrals >= 16 && s.Replays >= 16 },
	},
	{
		// A three-deep chain: a miss yields a pointer, two deferred loads
		// chase it (each missing again at replay) and an add consumes the
		// last one.
		name: "chain3",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			for k := int32(0); k < 4; k++ {
				b.Ld(isa.OpLd64, 2, 1, k*0x1040)
				b.Ld(isa.OpLd64, 3, 2, 0)
				b.Ld(isa.OpLd64, 4, 3, 0)
				b.Opi(isa.OpAddi, 5, 4, 1)
				b.Op(isa.OpAdd, 10, 10, 5)
			}
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 4; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 0x40000+k*0x1040)
				m.Mem.Write(0x40000+k*0x1040, 8, 0x60000+k*0x1040)
				m.Mem.Write(0x60000+k*0x1040, 8, 100+k)
			}
		},
		exercised: func(s *Stats, _ bool) bool { return s.Replays >= 12 && s.PendingMisses >= 12 },
	},
	{
		// A deferred branch whose operand arrives first while an older
		// entry still waits on a second-level miss: its mispredict rolls
		// back to the branch's checkpoint and squashes only the younger
		// deferred entries.
		name: "branch-squash",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			for k := int32(0); k < 4; k++ {
				off := k * 0x1040
				skip := fmt.Sprintf("skip%d", k)
				b.Ld(isa.OpLd64, 7, 1, off) // miss: pointer
				b.Ld(isa.OpLd64, 8, 7, 0)   // deferred; misses again at replay
				b.Opi(isa.OpAddi, 9, 8, 1)  // older entry, waits longest
				b.Ld(isa.OpLd64, 2, 1, off+512)
				b.Br(isa.OpBne, 2, 0, skip) // deferred branch on the early miss
				b.Opi(isa.OpAddi, 12, 2, 5) // younger entries, squashed on a mispredict
				b.Op(isa.OpAdd, 13, 12, 9)
				b.Op(isa.OpAdd, 11, 11, 13)
				b.Label(skip)
				b.Op(isa.OpAdd, 10, 10, 9)
				b.Op(isa.OpAdd, 10, 10, 2)
			}
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 4; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 0x40000+k*0x1040)
				m.Mem.Write(0x40000+k*0x1040, 8, 50+k)
				m.Mem.Write(0x20000+k*0x1040+512, 8, k%2)
			}
		},
		exercised: func(s *Stats, _ bool) bool { return s.RollbacksBy[RbBranch] > 0 },
	},
	{
		// A store whose data waits on a three-deep miss chain is deferred
		// while a loop of younger stores fills the SSB; its replay finds
		// no slot and rolls back.
		name: "ssb-overflow",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			for k := int32(0); k < 2; k++ {
				loop := fmt.Sprintf("loop%d", k)
				b.Ld(isa.OpLd64, 2, 1, k*0x1040) // miss: pointer
				b.Ld(isa.OpLd64, 5, 2, 0)        // deferred; misses at replay
				b.Ld(isa.OpLd64, 6, 5, 0)        // deferred; misses at replay
				b.St(isa.OpSt64, 6, 1, k*0x1040+8)
				b.Movi(3, 0x30000)
				b.Movi(9, 0)
				b.Movi(11, 80)
				b.Label(loop)
				b.St(isa.OpSt64, 9, 3, 0)
				b.Opi(isa.OpAddi, 3, 3, 8)
				b.Opi(isa.OpAddi, 9, 9, 1)
				b.Br(isa.OpBne, 9, 11, loop)
				b.Ld(isa.OpLd64, 4, 1, k*0x1040+8)
				b.Op(isa.OpAdd, 10, 10, 6)
				b.Op(isa.OpAdd, 10, 10, 4)
			}
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 2; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 0x40000+k*0x1040)
				m.Mem.Write(0x40000+k*0x1040, 8, 0x60000+k*0x1040)
				m.Mem.Write(0x60000+k*0x1040, 8, 11+k)
			}
		},
		exercised: func(s *Stats, _ bool) bool { return s.RollbacksBy[RbSSB] > 0 },
	},
	{
		// Two misses a cycle apart: the first wakes a long run of
		// consumers the replay strand drains two a cycle, the second
		// wakes one younger deferred branch while that backlog waits. The
		// branch must replay after the older backlog, so its mispredict
		// rolls back only once the backlog has drained.
		name: "ready-order",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			b.Movi(13, 4)
			b.Label("loop")               // the first pass also warms the I-cache
			b.Ld(isa.OpLd64, 2, 1, 0)     // miss: many consumers
			b.Ld(isa.OpLd64, 3, 1, 0x800) // miss a cycle later
			for i := int32(0); i < 24; i++ {
				b.Opi(isa.OpAddi, uint8(4+i%6), 2, i)
			}
			b.Br(isa.OpBne, 3, 0, "skip") // younger than the backlog
			b.Op(isa.OpAdd, 11, 11, 4)
			b.Label("skip")
			b.Op(isa.OpAdd, 10, 10, 9)
			b.Opi(isa.OpAddi, 1, 1, 0x1040)
			b.Opi(isa.OpAddi, 12, 12, 1)
			b.Br(isa.OpBne, 12, 13, "loop")
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 4; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 5+k)
				m.Mem.Write(0x20000+k*0x1040+0x800, 8, k%2)
			}
		},
		exercised: func(s *Stats, _ bool) bool { return s.RollbacksBy[RbBranch] > 0 && s.Deferrals >= 48 },
	},
	{
		// Independent misses under an open epoch, a deferred load that
		// misses at replay, and a load of a speculatively stored value:
		// the secure modes hold each of them until it is the oldest
		// unresolved instruction.
		name: "secure-hold",
		gen: func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			for k := int32(0); k < 4; k++ {
				off := k * 0x1040
				b.Ld(isa.OpLd64, 2, 1, off)       // miss: opens or extends the epoch
				b.Ld(isa.OpLd64, 3, 1, off+0x800) // independent speculative miss
				b.Ld(isa.OpLd64, 4, 2, 0)         // deferred load, misses at replay
				b.Op(isa.OpAdd, 5, 3, 4)
				b.Op(isa.OpAdd, 10, 10, 5)
				b.St(isa.OpSt64, 1, 1, off+0x900) // speculative store into the SSB
				b.Ld(isa.OpLd64, 6, 1, off+0x900) // held under SecureEagerSSBFlush
				b.Op(isa.OpAdd, 10, 10, 6)
			}
			b.Halt()
		},
		init: func(m *cpu.Machine) {
			for k := uint64(0); k < 4; k++ {
				m.Mem.Write(0x20000+k*0x1040, 8, 0x50000+k*0x1040)
				m.Mem.Write(0x20000+k*0x1040+0x800, 8, 30+k)
				m.Mem.Write(0x50000+k*0x1040, 8, 20+k)
			}
		},
		exercised: func(s *Stats, secure bool) bool { return !secure || s.SecureReleases >= 8 },
	},
}

// TestDQTimingPinned pins the exact timing of the deferred queue's
// wakeup, replay and squash paths on six small programs, on sst, sst-ea
// and sst-big with the secure modes off, with SecureDelayOnMiss alone
// and with all three on. Each line pins cycles, retirement, deferrals,
// replays, rollbacks by cause, secure releases, the DQ-full and secure
// stall counters and r2..r13. The expected lines were recorded from the
// DQ-scanning model the event-driven queue replaced; a change to which
// entry replays, or when, moves them.
func TestDQTimingPinned(t *testing.T) {
	big := DefaultConfig()
	big.DQSize *= 2
	big.Checkpoints *= 2
	big.SSBSize *= 2
	kinds := []struct {
		name string
		cfg  Config
	}{{"sst", DefaultConfig()}, {"sst-ea", ExecuteAheadConfig()}, {"sst-big", big}}
	secModes := []struct {
		name               string
		delay, nofwd, ssbf bool
	}{{"off", false, false, false}, {"delay", true, false, false}, {"all", true, true, true}}
	var got []string
	for _, sc := range pinnedScenarios {
		for _, k := range kinds {
			for _, sec := range secModes {
				cfg := k.cfg
				cfg.SecureDelayOnMiss = sec.delay
				cfg.SecureNoNAForward = sec.nofwd
				cfg.SecureEagerSSBFlush = sec.ssbf
				c, mach := build(t, cfg, sc.gen)
				sc.init(mach)
				run(t, c, 200_000)
				s := c.Stats()
				if !sc.exercised(s, sec.delay) {
					t.Errorf("%s/%s secure=%s: scenario path not exercised", sc.name, k.name, sec.name)
				}
				r := c.Regs()
				got = append(got, fmt.Sprintf("%s %s secure=%s cycles=%d retired=%d deferrals=%d replays=%d rollbacks=%v releases=%d stalls=%d/%d/%d/%d regs=%v",
					sc.name, k.name, sec.name, c.Cycle(), s.Retired, s.Deferrals, s.Replays,
					s.RollbacksBy, s.SecureReleases, s.DQFullStallCycles, s.SecureDelayStallCycles,
					s.SecureNoFwdStallCycles, s.SecureSSBStallCycles, r[2:14]))
			}
		}
	}
	want := []string{
		"fanout sst secure=off cycles=1313 retired=43 deferrals=18 replays=16 rollbacks=[0 0 0 0 2 0 0] releases=0 stalls=0/0/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst secure=delay cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=3 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst secure=all cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=6 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-ea secure=off cycles=1313 retired=43 deferrals=18 replays=16 rollbacks=[0 0 0 0 2 0 0] releases=0 stalls=0/0/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-ea secure=delay cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=3 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-ea secure=all cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=6 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-big secure=off cycles=1313 retired=43 deferrals=18 replays=16 rollbacks=[0 0 0 0 2 0 0] releases=0 stalls=0/0/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-big secure=delay cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=3 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"fanout sst-big secure=all cycles=1958 retired=43 deferrals=44 replays=25 rollbacks=[0 0 0 0 4 0 0] releases=6 stalls=0/1467/0/0 regs=[10 13 -7 20 10 0 0 3 126 0 0 0]",
		"chain3 sst secure=off cycles=1292 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[274624 405696 103 104 0 0 0 0 410 0 0 0]",
		"chain3 sst secure=delay cycles=2558 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=11 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"chain3 sst secure=all cycles=2558 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=22 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"chain3 sst-ea secure=off cycles=1293 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[274624 405696 103 104 0 0 0 0 410 0 0 0]",
		"chain3 sst-ea secure=delay cycles=2559 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=11 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"chain3 sst-ea secure=all cycles=2559 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=22 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"chain3 sst-big secure=off cycles=1292 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[274624 405696 103 104 0 0 0 0 410 0 0 0]",
		"chain3 sst-big secure=delay cycles=2558 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=11 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"chain3 sst-big secure=all cycles=2558 retired=22 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=22 stalls=0/1704/0/0 regs=[274624 405696 103 104 0 0 0 0 409 0 0 0]",
		"branch-squash sst secure=off cycles=1307 retired=36 deferrals=30 replays=21 rollbacks=[2 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst secure=delay cycles=2802 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=9 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst secure=all cycles=2802 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=18 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-ea secure=off cycles=1318 retired=36 deferrals=28 replays=20 rollbacks=[2 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-ea secure=delay cycles=2803 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=9 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-ea secure=all cycles=2803 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=18 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-big secure=off cycles=1307 retired=36 deferrals=30 replays=21 rollbacks=[2 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-big secure=delay cycles=2795 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=9 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"branch-squash sst-big secure=all cycles=2795 retired=36 deferrals=32 replays=18 rollbacks=[2 0 0 0 0 0 0] releases=18 stalls=0/2334/0/0 regs=[1 0 0 0 0 274624 53 54 212 114 5 58]",
		"ssb-overflow sst secure=off cycles=2425 retired=662 deferrals=8 replays=8 rollbacks=[0 0 2 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst secure=delay cycles=2420 retired=662 deferrals=7 replays=7 rollbacks=[0 0 2 0 0 0 0] releases=4 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst secure=all cycles=2420 retired=662 deferrals=7 replays=7 rollbacks=[0 0 2 0 0 0 0] releases=8 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-ea secure=off cycles=2425 retired=662 deferrals=8 replays=8 rollbacks=[0 0 2 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-ea secure=delay cycles=2420 retired=662 deferrals=7 replays=7 rollbacks=[0 0 2 0 0 0 0] releases=4 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-ea secure=all cycles=2420 retired=662 deferrals=7 replays=7 rollbacks=[0 0 2 0 0 0 0] releases=8 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-big secure=off cycles=2193 retired=662 deferrals=7 replays=7 rollbacks=[0 0 1 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-big secure=delay cycles=2195 retired=662 deferrals=7 replays=7 rollbacks=[0 0 1 0 0 0 0] releases=4 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ssb-overflow sst-big secure=all cycles=2195 retired=662 deferrals=7 replays=7 rollbacks=[0 0 1 0 0 0 0] releases=8 stalls=0/0/0/0 regs=[266304 197248 12 397376 12 0 0 80 46 80 0 0]",
		"ready-order sst secure=off cycles=1404 retired=129 deferrals=82 replays=55 rollbacks=[1 0 0 0 0 0 0] releases=0 stalls=153/0/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst secure=delay cycles=2399 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=5 stalls=153/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst secure=all cycles=2399 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=10 stalls=153/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-ea secure=off cycles=1404 retired=129 deferrals=82 replays=55 rollbacks=[1 0 0 0 0 0 0] releases=0 stalls=153/0/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-ea secure=delay cycles=2399 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=5 stalls=153/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-ea secure=all cycles=2399 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=10 stalls=153/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-big secure=off cycles=1387 retired=129 deferrals=82 replays=55 rollbacks=[1 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-big secure=delay cycles=2382 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=5 stalls=0/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"ready-order sst-big secure=all cycles=2382 retired=129 deferrals=108 replays=82 rollbacks=[1 0 0 0 0 0 0] releases=10 stalls=0/1275/0/0 regs=[8 1 26 27 28 29 30 31 118 48 4 4]",
		"secure-hold sst secure=off cycles=1282 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst secure=delay cycles=3619 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=15 stalls=0/3193/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst secure=all cycles=3619 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=30 stalls=0/2980/0/3190 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-ea secure=off cycles=1282 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-ea secure=delay cycles=3619 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=15 stalls=0/3193/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-ea secure=all cycles=3619 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=30 stalls=0/2980/0/3190 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-big secure=off cycles=1282 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=0 stalls=0/0/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-big secure=delay cycles=3617 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=15 stalls=0/3191/0/0 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
		"secure-hold sst-big secure=all cycles=3617 retired=34 deferrals=16 replays=16 rollbacks=[0 0 0 0 0 0 0] releases=30 stalls=0/2978/0/3188 regs=[340160 33 23 56 131072 0 0 0 524500 0 0 0]",
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("deferred-queue timing moved:\n got\n%s\n want\n%s", g, w)
	}
}

// checkDQ verifies the deferred queue's structural invariants: the age
// list is seq-sorted and accounts for every slot not free, the ready
// list is exactly the live entries with no NA operand (youngest first),
// pend is seq-sorted with exact held counts, and every NA operand sits
// exactly once on the consumer list of the live producer it names.
func checkDQ(c *Core) error {
	n, prev, last := 0, int32(-1), uint64(0)
	for s := c.dqHead; s >= 0; s = c.dqs[s].next {
		e := &c.dqs[s]
		if e.seq <= last || e.prev != prev {
			return fmt.Errorf("age list broken at slot %d (seq %d after %d)", s, e.seq, last)
		}
		last, prev = e.seq, s
		n++
	}
	if n != c.dqLen || prev != c.dqTail || n+len(c.dqFree) != len(c.dqs) {
		return fmt.Errorf("dq: %d linked, len %d, %d free of %d slots", n, c.dqLen, len(c.dqFree), len(c.dqs))
	}
	ready := 0
	for s := c.dqHead; s >= 0; s = c.dqs[s].next {
		if e := &c.dqs[s]; !(e.isNA[0] || e.isNA[1] || e.isNA[2]) {
			ready++
		}
	}
	for i, s := range c.dqReady {
		e := &c.dqs[s]
		if e.seq == 0 || e.isNA[0] || e.isNA[1] || e.isNA[2] || (i > 0 && c.dqs[c.dqReady[i-1]].seq <= e.seq) {
			return fmt.Errorf("ready list broken at %d", i)
		}
	}
	if ready != len(c.dqReady) {
		return fmt.Errorf("%d ready entries, %d listed", ready, len(c.dqReady))
	}
	var held [3]int
	for i := range c.pend {
		p := &c.pend[i]
		if i > 0 && c.pend[i-1].seq >= p.seq {
			return fmt.Errorf("pend not seq-sorted at %d", i)
		}
		switch {
		case p.blocked && p.secSSB:
			held[1]++
		case p.blocked:
			held[0]++
		case p.quarantined:
			held[2]++
		}
	}
	if held != [3]int{c.secDelayHeld, c.secSSBHeld, c.secQuarHeld} {
		return fmt.Errorf("held counts %v, recount %v", [3]int{c.secDelayHeld, c.secSSBHeld, c.secQuarHeld}, held)
	}
	seen := map[int32]bool{}
	walk := func(head int32, seq uint64) error {
		for node := head; node >= 0; node = c.dqs[node>>2].link[node&3] {
			e := &c.dqs[node>>2]
			if e.seq == 0 || !e.isNA[node&3] || e.dep[node&3] != seq || seen[node] {
				return fmt.Errorf("consumer node %d on the list of seq %d is stale", node, seq)
			}
			seen[node] = true
		}
		return nil
	}
	for s := c.dqHead; s >= 0; s = c.dqs[s].next {
		if err := walk(c.dqs[s].cons, c.dqs[s].seq); err != nil {
			return err
		}
	}
	for i := range c.pend {
		if err := walk(c.pend[i].cons, c.pend[i].seq); err != nil {
			return err
		}
	}
	for s := c.dqHead; s >= 0; s = c.dqs[s].next {
		for i, na := range c.dqs[s].isNA {
			if na && !seen[consumerNode(s, i)] && c.mode != ModeScout {
				return fmt.Errorf("NA operand %d of seq %d is on no producer's list", i, c.dqs[s].seq)
			}
		}
	}
	return nil
}

// TestDQInvariants steps every pinned scenario cycle by cycle on every
// configuration of TestDQTimingPinned and checks the queue's invariants
// after each cycle.
func TestDQInvariants(t *testing.T) {
	big := DefaultConfig()
	big.DQSize *= 2
	big.Checkpoints *= 2
	big.SSBSize *= 2
	for _, sc := range pinnedScenarios {
		for _, base := range []Config{DefaultConfig(), ExecuteAheadConfig(), big} {
			for _, secure := range []bool{false, true} {
				cfg := base
				cfg.SecureDelayOnMiss, cfg.SecureNoNAForward, cfg.SecureEagerSSBFlush = secure, secure, secure
				c, mach := build(t, cfg, sc.gen)
				sc.init(mach)
				for i := 0; i < 200_000 && !c.Done(); i++ {
					c.Step()
					if c.Err() != nil {
						t.Fatalf("%s: %v", sc.name, c.Err())
					}
					if err := checkDQ(c); err != nil {
						t.Fatalf("%s secure=%t cycle %d: %v\n%s", sc.name, secure, c.Cycle(), err, c.DebugDump())
					}
				}
				if !c.Done() {
					t.Fatalf("%s secure=%t: not done", sc.name, secure)
				}
			}
		}
	}
}
