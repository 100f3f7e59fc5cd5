package trace

import (
	"testing"
	"testing/quick"

	"sdbp/internal/mem"
)

func TestRegionAddr(t *testing.T) {
	r := Region{Base: 0x1000, Blocks: 4}
	if got := r.Addr(0, 0); got != 0x1000 {
		t.Errorf("Addr(0,0) = %#x", got)
	}
	if got := r.Addr(1, 8); got != 0x1000+64+8 {
		t.Errorf("Addr(1,8) = %#x", got)
	}
	// Index wraps modulo the region.
	if got := r.Addr(5, 0); got != r.Addr(1, 0) {
		t.Error("Addr index did not wrap")
	}
	if got := r.Addr(-1, 0); got != r.Addr(3, 0) {
		t.Error("negative index did not wrap")
	}
	// Offsets stay within the block.
	if got := r.Addr(0, 64); got != 0x1000 {
		t.Errorf("offset 64 escaped the block: %#x", got)
	}
}

func TestProgramLengthAndReset(t *testing.T) {
	k := &HotSet{Region: Region{Base: 0, Blocks: 16}, PCBase: 0x10, GapMean: 2}
	p := NewProgram(k, 100, 1)
	first := Collect(p)
	if len(first) != 100 {
		t.Fatalf("collected %d accesses, want 100", len(first))
	}
	p.Reset()
	second := Collect(p)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("stream not reproducible at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestProgramSeedsChangeStream(t *testing.T) {
	mk := func(seed uint64) []mem.Access {
		k := &RandomAccess{Region: Region{Blocks: 1024}, PCCount: 16, PCBase: 0x10}
		return Collect(NewProgram(k, 200, seed))
	}
	a, b := mk(1), mk(2)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamSequentialSweep(t *testing.T) {
	k := &Stream{Region: Region{Base: 0, Blocks: 8}, PCBase: 0x100}
	r := mem.NewRand(1)
	k.Reset(r)
	for lap := 0; lap < 2; lap++ {
		for i := 0; i < 8; i++ {
			a := k.Step(r)
			if mem.BlockNumber(a.Addr) != uint64(i) {
				t.Fatalf("lap %d pos %d: block %d", lap, i, mem.BlockNumber(a.Addr))
			}
			if a.PC != 0x100 {
				t.Fatalf("lead PC = %#x", a.PC)
			}
		}
	}
}

func TestStreamBurstSharesBlock(t *testing.T) {
	k := &Stream{Region: Region{Base: 0, Blocks: 8}, Burst: 3, PCBase: 0x100}
	r := mem.NewRand(1)
	k.Reset(r)
	a1, a2, a3 := k.Step(r), k.Step(r), k.Step(r)
	if mem.BlockAddr(a1.Addr) != mem.BlockAddr(a2.Addr) || mem.BlockAddr(a2.Addr) != mem.BlockAddr(a3.Addr) {
		t.Error("burst accesses span blocks")
	}
	a4 := k.Step(r)
	if mem.BlockAddr(a4.Addr) == mem.BlockAddr(a1.Addr) {
		t.Error("burst did not advance to the next block")
	}
}

func TestStreamLagVisit(t *testing.T) {
	const lag = 4
	k := &Stream{Region: Region{Base: 0, Blocks: 64}, Lag: lag, WriteLag: true, PCBase: 0x100}
	r := mem.NewRand(1)
	k.Reset(r)
	var leads, lags []uint64
	for i := 0; i < 40; i++ {
		a := k.Step(r)
		if a.PC == 0x100+0x400 {
			if !a.Write {
				t.Fatal("lag visit not a store")
			}
			lags = append(lags, mem.BlockNumber(a.Addr))
		} else {
			leads = append(leads, mem.BlockNumber(a.Addr))
		}
	}
	if len(lags) == 0 {
		t.Fatal("no lag visits emitted")
	}
	// Each lag visit trails its lead by exactly lag blocks.
	for i, lb := range lags {
		if want := leads[i] - lag; lb != want && leads[i] >= lag {
			t.Fatalf("lag visit %d: block %d, want %d", i, lb, want)
		}
	}
}

func TestStreamLagProb(t *testing.T) {
	k := &Stream{Region: Region{Base: 0, Blocks: 1024}, Lag: 8, LagProb: 0.5, PCBase: 0x100}
	r := mem.NewRand(3)
	k.Reset(r)
	lagCount, leadCount := 0, 0
	for i := 0; i < 3000; i++ {
		a := k.Step(r)
		if a.PC == 0x100+0x400 {
			lagCount++
		} else {
			leadCount++
		}
	}
	frac := float64(lagCount) / float64(leadCount)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("lag fraction = %.2f, want ~0.5", frac)
	}
}

func TestGenerationalPassStructure(t *testing.T) {
	k := &Generational{
		Region: Region{Base: 0, Blocks: 8}, SegBlocks: 4,
		MinUses: 1, MaxUses: 1, PCBase: 0x1000,
	}
	r := mem.NewRand(1)
	k.Reset(r)
	// Deterministic probs: passes are setup, use1, final over segment 0
	// then segment 1.
	wantPCs := []uint64{0x1000, 0x1000 + 0x108, 0x1000 + 0x800}
	for seg := 0; seg < 2; seg++ {
		for p, pc := range wantPCs {
			for b := 0; b < 4; b++ {
				a := k.Step(r)
				if a.PC != pc {
					t.Fatalf("seg %d pass %d block %d: PC %#x, want %#x", seg, p, b, a.PC, pc)
				}
				if want := uint64(seg*4 + b); mem.BlockNumber(a.Addr) != want {
					t.Fatalf("block %d, want %d", mem.BlockNumber(a.Addr), want)
				}
				if (p == 0) != a.Write {
					t.Fatalf("pass %d write flag %v", p, a.Write)
				}
			}
		}
	}
}

func TestGenerationalUseProbSkips(t *testing.T) {
	k := &Generational{
		Region: Region{Base: 0, Blocks: 4096}, SegBlocks: 4096,
		MinUses: 1, MaxUses: 1, UseProb: 0.5, PCBase: 0x1000,
	}
	r := mem.NewRand(9)
	k.Reset(r)
	counts := map[uint64]int{} // PC -> touches
	for i := 0; i < 3*4096; i++ {
		counts[k.Step(r).PC]++
	}
	setup, use := counts[0x1000], counts[0x1000+0x108]
	if use < setup/3 || use > 2*setup/3 {
		t.Errorf("use touches %d vs setup %d; want about half", use, setup)
	}
}

func TestGenerationalFreshAddresses(t *testing.T) {
	k := &Generational{
		Region: Region{Base: 0x10000, Blocks: 4}, SegBlocks: 4,
		MinUses: 0, MaxUses: 0, Fresh: true, PCBase: 0x1000,
	}
	r := mem.NewRand(1)
	k.Reset(r)
	seen := map[uint64]int{}
	for i := 0; i < 32; i++ { // 4 epochs of (setup+final) x 4 blocks
		seen[mem.BlockNumber(k.Step(r).Addr)]++
	}
	// Fresh mode: each epoch's blocks are new, so every block number is
	// touched exactly twice (setup + final), never across epochs.
	for b, n := range seen {
		if n != 2 {
			t.Errorf("block %d touched %d times; fresh epochs must not reuse addresses", b, n)
		}
	}
	if len(seen) != 16 {
		t.Errorf("distinct blocks = %d, want 16", len(seen))
	}
}

func TestGenerationalRefitReusesAddresses(t *testing.T) {
	k := &Generational{
		Region: Region{Base: 0x10000, Blocks: 4}, SegBlocks: 4,
		MinUses: 0, MaxUses: 0, PCBase: 0x1000,
	}
	r := mem.NewRand(1)
	k.Reset(r)
	seen := map[uint64]int{}
	for i := 0; i < 32; i++ {
		seen[mem.BlockNumber(k.Step(r).Addr)]++
	}
	if len(seen) != 4 {
		t.Errorf("distinct blocks = %d, want 4 (refit reuses the region)", len(seen))
	}
}

func TestPointerChaseSingleCycle(t *testing.T) {
	const n = 64
	k := &PointerChase{Region: Region{Base: 0, Blocks: n}, PCCount: 4, PCBase: 0x2000}
	r := mem.NewRand(1)
	k.Reset(r)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		a := k.Step(r)
		if !a.DependentLoad {
			t.Fatal("chase access not marked dependent")
		}
		b := mem.BlockNumber(a.Addr)
		if seen[b] {
			t.Fatalf("block %d revisited before the cycle completed", b)
		}
		seen[b] = true
	}
	if len(seen) != n {
		t.Errorf("cycle covered %d of %d nodes", len(seen), n)
	}
}

func TestRepeatFactor(t *testing.T) {
	inner := &HotSet{Region: Region{Base: 0, Blocks: 8}, PCBase: 0x10}
	k := &Repeat{Kernel: inner, Factor: 3}
	r := mem.NewRand(1)
	k.Reset(r)
	for b := 0; b < 8; b++ {
		first := k.Step(r)
		for rep := 1; rep < 3; rep++ {
			a := k.Step(r)
			if mem.BlockAddr(a.Addr) != mem.BlockAddr(first.Addr) {
				t.Fatalf("repeat %d left the block", rep)
			}
			if a.DependentLoad {
				t.Fatal("repeat marked dependent")
			}
		}
	}
}

func TestMixWeights(t *testing.T) {
	a := &HotSet{Region: Region{Base: 0, Blocks: 4}, PCBase: 0x1000}
	b := &HotSet{Region: Region{Base: 1 << 32, Blocks: 4}, PCBase: 0x2000}
	m := NewMix(Weighted{a, 3}, Weighted{b, 1})
	r := mem.NewRand(1)
	m.Reset(r)
	counts := [2]int{}
	for i := 0; i < 40000; i++ {
		if m.Step(r).Addr < 1<<32 {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("mix ratio = %.2f, want ~3", ratio)
	}
}

func TestMixRejectsBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMix accepted non-positive weight")
		}
	}()
	NewMix(Weighted{&HotSet{Region: Region{Blocks: 1}}, 0})
}

func TestGapMeanApproximation(t *testing.T) {
	k := &HotSet{Region: Region{Base: 0, Blocks: 8}, PCBase: 0x10, GapMean: 5}
	var total uint64
	for _, a := range Collect(NewProgram(k, 50000, 1)) {
		total += uint64(a.Gap)
	}
	avg := float64(total) / 50000
	if avg < 4.5 || avg > 5.5 {
		t.Errorf("mean gap = %.2f, want ~5", avg)
	}
}

func TestProgramDeterminismProperty(t *testing.T) {
	f := func(seed uint64, blocks uint8) bool {
		n := int(blocks)%100 + 10
		mk := func() []mem.Access {
			k := &RandomAccess{Region: Region{Blocks: n}, PCCount: 8, PCBase: 0x1}
			return Collect(NewProgram(k, 100, seed))
		}
		a, b := mk(), mk()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
