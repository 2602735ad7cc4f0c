package ooo

import (
	"fmt"
	"strings"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

func testHier() mem.HierConfig {
	return mem.HierConfig{
		L1I:     mem.CacheConfig{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 4},
		L1D:     mem.CacheConfig{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2:      mem.CacheConfig{Name: "L2", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 10, MSHRs: 16},
		L2Banks: 2,
		DRAM:    mem.DRAMConfig{Latency: 200, Banks: 4, BankBusy: 8},
	}
}

func build(t *testing.T, cfg Config, gen func(b *asm.Builder)) (*Core, *cpu.Machine) {
	t.Helper()
	b := asm.NewBuilder(asm.DefaultTextBase)
	gen(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, testHier(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(mach, cfg, prog.Entry), mach
}

func mustRun(t *testing.T, c *Core, max uint64) {
	t.Helper()
	if err := cpu.Run(c, max); err != nil {
		t.Fatal(err)
	}
}

func TestRenameEliminatesWAW(t *testing.T) {
	// Repeated writes to the same register with independent chains:
	// renaming lets them all be in flight.
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0)  // long miss writes r2
		b.Movi(2, 5)               // WAW: must NOT wait for the load
		b.Opi(isa.OpAddi, 3, 2, 1) // reads the movi's value
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[3] != 6 {
		t.Errorf("r3 = %d, want 6", c.Regs()[3])
	}
	if c.Regs()[2] != 5 {
		t.Errorf("r2 = %d, want 5 (movi is younger)", c.Regs()[2])
	}
}

func TestOutOfOrderIssueUnderMiss(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(5, 0x30000)
		b.Ld(isa.OpLd64, 2, 1, 0) // miss
		b.Ld(isa.OpLd64, 6, 5, 0) // independent miss: overlaps
		b.Opi(isa.OpAddi, 3, 2, 1)
		b.Op(isa.OpAdd, 7, 6, 3)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Cycle() > 600 {
		t.Errorf("cycles = %d: independent misses did not overlap", c.Cycle())
	}
	if c.Base().MLPSum < 2 {
		t.Error("never had 2 outstanding misses")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0xabcd)
		b.St(isa.OpSt64, 2, 1, 0)
		b.Ld(isa.OpLd64, 3, 1, 0) // forwards from the in-flight store
		b.Opi(isa.OpAddi, 4, 3, 1)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[4] != 0xabce {
		t.Errorf("r4 = %#x", c.Regs()[4])
	}
}

func TestPartialForwardComposition(t *testing.T) {
	// A narrow store overlaying a wide load composes bytes correctly.
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0xff)
		b.St(isa.OpSt8, 2, 1, 2) // overwrite byte 2
		b.Ld(isa.OpLd64, 3, 1, 0)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 0x1111111111111111)
	mustRun(t, c, 10_000)
	if got := uint64(c.Regs()[3]); got != 0x1111111111ff1111 {
		t.Errorf("r3 = %#x", got)
	}
}

func TestBranchMispredictSquash(t *testing.T) {
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0) // memory: 1 -> branch not taken
		b.Br(isa.OpBeq, 2, isa.RegZero, "taken")
		b.Movi(3, 111)
		b.Halt()
		b.Label("taken")
		b.Movi(3, 222)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 1)
	mustRun(t, c, 10_000)
	if c.Regs()[3] != 111 {
		t.Errorf("r3 = %d", c.Regs()[3])
	}
	st := c.Stats()
	// Initial weakly-taken prediction is wrong for this branch.
	if st.Squashes == 0 || st.WrongPathInsts == 0 {
		t.Errorf("squashes=%d wrongpath=%d", st.Squashes, st.WrongPathInsts)
	}
}

func TestMemOrderViolationSquash(t *testing.T) {
	// A load speculatively bypasses an older store with a late-resolving
	// address that does conflict.
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(4, 0x5555)
		b.Ld(isa.OpLd64, 2, 1, 0) // miss: store address depends on it
		b.Op(isa.OpAdd, 3, 1, 2)  // addr = 0x20000 + 64
		b.St(isa.OpSt64, 4, 3, 0)
		b.Ld(isa.OpLd64, 5, 1, 64) // same location, issues early
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 64)
	mustRun(t, c, 10_000)
	if c.Regs()[5] != 0x5555 {
		t.Errorf("r5 = %#x, want 0x5555", c.Regs()[5])
	}
	if c.Stats().MemOrderViolations == 0 {
		t.Error("no violation recorded")
	}
}

func TestConservativeModeBlocksInstead(t *testing.T) {
	cfg := SmallConfig()
	cfg.SpecLoads = false
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(4, 0x5555)
		b.Ld(isa.OpLd64, 2, 1, 0)
		b.Op(isa.OpAdd, 3, 1, 2)
		b.St(isa.OpSt64, 4, 3, 0)
		b.Ld(isa.OpLd64, 5, 1, 64)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 64)
	mustRun(t, c, 10_000)
	if c.Regs()[5] != 0x5555 {
		t.Errorf("r5 = %#x", c.Regs()[5])
	}
	if c.Stats().MemOrderViolations != 0 {
		t.Error("conservative mode had a violation")
	}
}

func TestJalrBTBMissBlocksFetch(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.SetEntry("main")
		b.Label("target")
		b.Movi(2, 77)
		b.Halt()
		b.Label("main")
		b.MoviLabel(1, "target")
		b.Jalr(0, 1, 0) // cold BTB: fetch must wait for resolution
		b.Movi(2, 1)    // never reached
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[2] != 77 {
		t.Errorf("r2 = %d", c.Regs()[2])
	}
}

func TestROBWindowLimits(t *testing.T) {
	// With a tiny ROB, a miss at the head blocks everything; a larger
	// ROB lets independent work proceed further.
	gen := func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0)
		for i := 0; i < 64; i++ {
			b.Opi(isa.OpAddi, 3, 3, 1) // independent chain
		}
		b.Halt()
	}
	small := SmallConfig()
	small.ROBSize = 4
	small.IQSize = 4
	c1, _ := build(t, small, gen)
	mustRun(t, c1, 100_000)
	large := SmallConfig()
	large.ROBSize = 128
	large.IQSize = 64
	c2, _ := build(t, large, gen)
	mustRun(t, c2, 100_000)
	if c2.Cycle() >= c1.Cycle() {
		t.Errorf("bigger window not faster: %d vs %d", c2.Cycle(), c1.Cycle())
	}
	if c1.Stats().ROBFullCycles == 0 {
		t.Error("tiny ROB never filled")
	}
}

func TestAtomicsAtHead(t *testing.T) {
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0) // compare
		b.Movi(3, 9) // swap-in
		b.Cas(3, 1, 2)
		b.Opi(isa.OpAddi, 4, 3, 1) // uses cas result (old value 0)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if got := mach.Mem.Read(0x20000, 8); got != 9 {
		t.Errorf("cas mem = %d", got)
	}
	if c.Regs()[4] != 1 {
		t.Errorf("r4 = %d", c.Regs()[4])
	}
}

func TestCommitWidthBounds(t *testing.T) {
	cfg := SmallConfig()
	cfg.CommitWidth = 1
	c, _ := build(t, cfg, func(b *asm.Builder) {
		for i := 0; i < 100; i++ {
			b.Op(isa.OpAdd, 3, 1, 2)
		}
		b.Halt()
	})
	mustRun(t, c, 100_000)
	// 101 instructions at 1/cycle commit: at least 101 cycles.
	if c.Cycle() < 101 {
		t.Errorf("cycles = %d, impossible with commit width 1", c.Cycle())
	}
}

func TestLSQCapacityBlocksFetch(t *testing.T) {
	cfg := SmallConfig()
	cfg.LSQSize = 2
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		for i := 0; i < 8; i++ {
			b.Ld(isa.OpLd64, 2, 1, int32(i*4096))
		}
		b.Halt()
	})
	mustRun(t, c, 100_000)
	if c.Retired() != 10 {
		t.Errorf("retired = %d", c.Retired())
	}
}

// TestViolationTimingPinned pins the exact timing of memory-order
// violation handling, which the test-scale workloads barely exercise.
// Each block's store address waits on a missing load while younger
// loads, some aliasing the store fully or partly, issue early and
// must be squashed from the oldest violator on. The expected lines
// were recorded from the ROB-walking scheduler this model replaced; a
// change to which load is squashed, or when, moves them.
func TestViolationTimingPinned(t *testing.T) {
	gen := func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(4, 0x5555)
		for k := int32(0); k < 8; k++ {
			off := k * 0x1000
			b.Ld(isa.OpLd64, 2, 1, off) // miss: the store address waits on it
			b.Op(isa.OpAdd, 3, 1, 2)    // r3 = r1 + 64
			b.St(isa.OpSt64, 4, 3, off)
			if k < 4 {
				b.Ld(isa.OpLd64, 5, 1, off+128) // younger, no alias
			}
			if k%2 == 0 {
				b.Ld(isa.OpLd32, 6, 1, off+68) // younger, partial alias
				b.Ld(isa.OpLd64, 7, 1, off+64) // younger, full alias
			} else {
				b.Ld(isa.OpLd64, 7, 1, off+64)
				b.Ld(isa.OpLd32, 6, 1, off+68)
			}
			b.Op(isa.OpAdd, 8, 8, 6)
			b.Op(isa.OpAdd, 8, 8, 7)
			b.Opi(isa.OpAddi, 4, 4, 1)
		}
		b.Halt()
	}
	var got []string
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"small", SmallConfig()}, {"large", LargeConfig()}} {
		for _, spec := range []bool{true, false} {
			c := cfg.cfg
			c.SpecLoads = spec
			core, mach := build(t, c, gen)
			for k := uint64(0); k < 8; k++ {
				mach.Mem.Write(0x20000+k*0x1000, 8, 64)
			}
			mustRun(t, core, 100_000)
			s := core.Stats()
			got = append(got, fmt.Sprintf("%s spec=%t cycles=%d retired=%d viol=%d squash=%d wrong=%d empty=%d robfull=%d r8=%d",
				cfg.name, spec, core.Cycle(), s.Retired, s.MemOrderViolations, s.Squashes,
				s.WrongPathInsts, s.EmptyIssueCycles, s.ROBFullCycles, core.Regs()[8]))
		}
	}
	want := []string{
		"small spec=true cycles=2218 retired=71 viol=4 squash=4 wrong=9 empty=1888 robfull=0 r8=174788",
		"small spec=false cycles=2173 retired=71 viol=0 squash=0 wrong=0 empty=1893 robfull=0 r8=174788",
		"large spec=true cycles=1995 retired=71 viol=3 squash=3 wrong=11 empty=1677 robfull=0 r8=174788",
		"large spec=false cycles=1940 retired=71 viol=0 squash=0 wrong=0 empty=1686 robfull=0 r8=174788",
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("violation timing moved:\n got\n%s\n want\n%s", g, w)
	}
}
