// Package workloads defines the reproduction's benchmark suite: 29
// deterministic synthetic analogs of the SPEC CPU 2006 benchmarks
// (Table III), the 19-benchmark memory-intensive subset the paper
// evaluates on, and the 10 quad-core mixes of Table IV.
//
// Each analog is a Mix of trace kernels engineered to exhibit its
// namesake's published memory behavior at the scale of a 2MB LLC:
// pointer chasing for mcf, streaming for libquantum/lbm, phase-
// structured generational reuse with PC-correlated last touches for
// hmmer/bzip2, unpredictable references for astar, and L2-resident
// working sets for the ten benchmarks the paper excludes as
// cache-insensitive. Absolute miss rates differ from SPEC's; the
// properties dead block prediction exploits — and the ways the baseline
// predictors fail — are preserved.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"sdbp/internal/mem"
	"sdbp/internal/memo"
	"sdbp/internal/trace"
)

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the SPEC-style benchmark name ("456.hmmer").
	Name string
	// Class summarizes the behavior family for documentation.
	Class string
	// InSubset marks membership in the paper's memory-intensive subset.
	InSubset bool
	// accesses is the stream length at scale 1.0.
	accesses int
	// build constructs the kernel mix; b allocates disjoint address
	// regions and code-site bases.
	build func(b *builder) trace.Kernel
	// id is the benchmark's stable index (address-space tag and seed).
	id int
}

// Generator returns the workload's reference stream at the given scale
// (1.0 reproduces the default length) as a batch generator. Streams are
// deterministic: the same workload and stream length always produce the
// same accesses. Each call generates the stream afresh; what a campaign
// reuses is kept by package sim, in the process memo: the private
// levels' output of a small stream, and a multicore member's stream.
func (w Workload) Generator(scale float64) trace.BatchGenerator {
	b := &builder{bench: uint64(w.id)}
	k := w.build(b)
	return trace.NewProgram(k, w.Accesses(scale), 0xBE2C0000+uint64(w.id))
}

// Accesses returns the length of the workload's reference stream at
// the given scale: the number of accesses Generator(scale) delivers.
func (w Workload) Accesses(scale float64) int {
	n := int(float64(w.accesses) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

type instrKey struct {
	id    int
	scale float64
}

var instructions = memo.New[instrKey, uint64]()

// Instructions returns the instruction count of one full pass of the
// workload's stream at the given scale (0 means 1): the sum over all
// accesses of Gap+1. Streams are deterministic, so each count is walked
// once and kept in the process memo; walking a stream costs nearly as
// much as simulating it. The method is safe for concurrent use.
func (w Workload) Instructions(scale float64) uint64 {
	if scale == 0 {
		scale = 1
	}
	n, _ := instructions.Do(instrKey{id: w.id, scale: scale}, func() (uint64, int, error) {
		var n uint64
		gen := w.Generator(scale)
		var buf [256]mem.Access
		for k := gen.NextBatch(buf[:]); k > 0; k = gen.NextBatch(buf[:]) {
			for i := range buf[:k] {
				n += uint64(buf[i].Gap) + 1
			}
		}
		return n, 8, nil
	})
	return n
}

// builder hands out disjoint address regions and code-site bases within
// one benchmark's address space.
type builder struct {
	bench      uint64
	regions    int
	nextPCSlot uint64
}

// region allocates a fresh region of the given size in blocks. Each
// region gets its own 4GB window so kernels never alias.
func (b *builder) region(blocks int) trace.Region {
	r := trace.Region{
		Base:   b.bench<<40 | uint64(b.regions+1)<<32,
		Blocks: blocks,
	}
	b.regions++
	return r
}

// pcBase allocates a fresh code-site base address.
func (b *builder) pcBase() uint64 {
	b.nextPCSlot++
	return 0x400000 + b.bench<<24 + b.nextPCSlot<<12
}

// Block-count landmarks, in 64-byte blocks, for a 2MB 16-way LLC over a
// 256KB L2: kernels sized between l2Reach and llcBlocks live in the LLC;
// kernels beyond llcBlocks thrash it.
const (
	l2Reach   = 4096  // 256KB L2
	llcBlocks = 32768 // 2MB LLC
)

var registry []Workload

func register(w Workload) {
	w.id = len(registry) + 1
	registry = append(registry, w)
}

// All returns every workload, in registration (Table III) order.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// Subset returns the paper's 19-benchmark memory-intensive subset.
func Subset() []Workload {
	var out []Workload
	for _, w := range registry {
		if w.InSubset {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the named workload. The error for an unknown name
// lists the valid benchmarks, mirroring cmd/experiments' -only
// diagnostics.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q; valid benchmarks: %s",
		name, strings.Join(Names(), ", "))
}

// Names returns every registered benchmark name in canonical
// (lexically sorted) order — the order the paper's per-benchmark
// figures list them in.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, w := range registry {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

// Mix is one quad-core multiprogrammed workload (Table IV).
type Mix struct {
	// Name is the mix label ("mix1").
	Name string
	// Members are the four benchmark names sharing the LLC.
	Members [4]string
}

// Mixes returns the paper's ten quad-core mixes (Table IV).
func Mixes() []Mix {
	return []Mix{
		{"mix1", [4]string{"429.mcf", "456.hmmer", "462.libquantum", "471.omnetpp"}},
		{"mix2", [4]string{"445.gobmk", "450.soplex", "462.libquantum", "470.lbm"}},
		{"mix3", [4]string{"434.zeusmp", "437.leslie3d", "462.libquantum", "483.xalancbmk"}},
		{"mix4", [4]string{"416.gamess", "436.cactusADM", "450.soplex", "462.libquantum"}},
		{"mix5", [4]string{"401.bzip2", "416.gamess", "429.mcf", "482.sphinx3"}},
		{"mix6", [4]string{"403.gcc", "454.calculix", "462.libquantum", "482.sphinx3"}},
		{"mix7", [4]string{"400.perlbench", "433.milc", "456.hmmer", "470.lbm"}},
		{"mix8", [4]string{"401.bzip2", "403.gcc", "445.gobmk", "470.lbm"}},
		{"mix9", [4]string{"416.gamess", "429.mcf", "465.tonto", "483.xalancbmk"}},
		{"mix10", [4]string{"433.milc", "444.namd", "482.sphinx3", "483.xalancbmk"}},
	}
}

// ws wraps trace.Weighted construction for readability below.
func ws(k trace.Kernel, weight int) trace.Weighted {
	return trace.Weighted{Kernel: k, Weight: weight}
}

func init() {
	// --- The memory-intensive subset (19 benchmarks, Figure 4/5). ---
	//
	// Shared structure: each benchmark pairs an LLC-scale reuse
	// component (Generational, PointerChase or a small hot set) with
	// single-touch dead traffic (Stream, RandomAccess) that pollutes an
	// LRU cache. Repeat factors give every touched block short bursts
	// that the L1 absorbs, so the LLC sees a filtered stream as in the
	// paper; UseProb/FinalProb model the per-block variance the
	// mid-level cache induces in that filtering.

	register(Workload{
		Name: "400.perlbench", Class: "generational+streams", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.Generational{Region: b.region(27_000), SegBlocks: 9_000,
					MinUses: 1, MaxUses: 3, UseProb: 0.75, FinalProb: 0.92, PCBase: b.pcBase(), GapMean: 3}}, 4),
				ws(&trace.Stream{Region: b.region(44_000), Burst: 2, PCBase: b.pcBase(), GapMean: 3}, 2),
				ws(&trace.Repeat{Factor: 4, Kernel: &trace.HotSet{Region: b.region(1_500), PCBase: b.pcBase(), GapMean: 2}}, 2),
			)
		},
	})
	register(Workload{
		Name: "401.bzip2", Class: "generational, variable uses", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.Generational{Region: b.region(30_000), SegBlocks: 7_500,
					MinUses: 1, MaxUses: 4, UseProb: 0.7, FinalProb: 0.9, PCBase: b.pcBase(), GapMean: 3}}, 4),
				ws(&trace.Stream{Region: b.region(70_000), Burst: 3, PCBase: b.pcBase(), GapMean: 2}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "403.gcc", Class: "mixed phases", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(24_000), SegBlocks: 8_000,
					MinUses: 1, MaxUses: 2, UseProb: 0.65, FinalProb: 0.85, PCBase: b.pcBase(), GapMean: 3}}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.RandomAccess{Region: b.region(20_000), PCCount: 1024,
					WriteFrac: 0.2, PCBase: b.pcBase(), GapMean: 3}}, 1),
				ws(&trace.Stream{Region: b.region(48_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "429.mcf", Class: "pointer chasing", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.PointerChase{Region: b.region(96_000), PCCount: 64,
					PCBase: b.pcBase(), GapMean: 2}}, 5),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(20_000), SegBlocks: 10_000,
					MinUses: 1, MaxUses: 2, UseProb: 0.7, FinalProb: 0.9, PCBase: b.pcBase(), GapMean: 2}}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "433.milc", Class: "streaming lattice", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(64_000), Burst: 2, Lag: 4_600, LagProb: 0.6,
					WriteLag: true, PCBase: b.pcBase(), GapMean: 2}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(19_200), SegBlocks: 4_800,
					Fresh: true, MinUses: 1, MaxUses: 2, UseProb: 0.85, PCBase: b.pcBase(), GapMean: 3}}, 2),
			)
		},
	})
	register(Workload{
		Name: "434.zeusmp", Class: "scan with reuse", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(20_000), SegBlocks: 10_000,
					MinUses: 3, MaxUses: 5, UseProb: 0.8, FinalProb: 0.9, PCBase: b.pcBase(), GapMean: 3}}, 3),
				ws(&trace.Stream{Region: b.region(80_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 2),
			)
		},
	})
	register(Workload{
		Name: "435.gromacs", Class: "generational", InSubset: true,
		accesses: 2_400_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.Generational{Region: b.region(22_000), SegBlocks: 11_000,
					MinUses: 2, MaxUses: 3, UseProb: 0.85, FinalProb: 0.95, PCBase: b.pcBase(), GapMean: 3}}, 4),
				ws(&trace.Stream{Region: b.region(50_000), Burst: 2, PCBase: b.pcBase(), GapMean: 3}, 1),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_500), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "436.cactusADM", Class: "stencil sweep", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(48_000), Burst: 2, Lag: 4_600, LagProb: 0.5,
					WriteLag: true, PCBase: b.pcBase(), GapMean: 2}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(16_500), SegBlocks: 5_500,
					Fresh: true, MinUses: 1, MaxUses: 2, UseProb: 0.85, PCBase: b.pcBase(), GapMean: 3}}, 2),
			)
		},
	})
	register(Workload{
		Name: "437.leslie3d", Class: "streaming", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(80_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(13_500), SegBlocks: 4_500,
					Fresh: true, MinUses: 1, MaxUses: 2, UseProb: 0.8, PCBase: b.pcBase(), GapMean: 3}}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "450.soplex", Class: "sparse matrix", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(30_000), SegBlocks: 7_500,
					MinUses: 1, MaxUses: 3, UseProb: 0.7, FinalProb: 0.88, PCBase: b.pcBase(), GapMean: 3}}, 3),
				ws(&trace.Stream{Region: b.region(44_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "456.hmmer", Class: "generational, near-fixed uses", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.Generational{Region: b.region(24_000), SegBlocks: 12_000,
					MinUses: 2, MaxUses: 2, UseProb: 0.95, FinalProb: 0.97, PCBase: b.pcBase(), GapMean: 3}}, 5),
				ws(&trace.Stream{Region: b.region(60_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "459.GemsFDTD", Class: "streaming", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(96_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 4),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(15_200), SegBlocks: 3_800,
					Fresh: true, MinUses: 1, MaxUses: 1, PCBase: b.pcBase(), GapMean: 3}}, 1),
			)
		},
	})
	register(Workload{
		Name: "462.libquantum", Class: "pure streaming", InSubset: true,
		accesses: 2_800_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(56_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(18_000), SegBlocks: 6_000,
					MinUses: 3, MaxUses: 5, UseProb: 0.9, PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "470.lbm", Class: "streaming read-modify-write", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(96_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 4),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(15_200), SegBlocks: 3_800,
					Fresh: true, MinUses: 1, MaxUses: 2, PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "471.omnetpp", Class: "pointer chasing + generational", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.PointerChase{Region: b.region(40_000), PCCount: 128,
					PCBase: b.pcBase(), GapMean: 3}}, 2),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(20_000), SegBlocks: 10_000,
					MinUses: 1, MaxUses: 2, UseProb: 0.7, FinalProb: 0.88, PCBase: b.pcBase(), GapMean: 3}}, 2),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "473.astar", Class: "unpredictable", InSubset: true,
		accesses: 2_400_000,
		build: func(b *builder) trace.Kernel {
			// Reused and transient data are referenced from the SAME
			// code sites (shared PCBase): a fitting region A and a
			// far-larger region B whose blocks effectively die after
			// one touch. No code site is predictive of death, so
			// low-threshold predictors cross into confident-but-wrong
			// dead predictions, evicting and bypassing region A's live
			// blocks (the paper's reftrace blow-up on astar), while the
			// sampling predictor's 8-of-9 threshold keeps its coverage
			// and damage low.
			searchPCs := b.pcBase()
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.RandomAccess{Region: b.region(6_000), PCCount: 2048,
					WriteFrac: 0.3, PCBase: searchPCs, GapMean: 3}}, 5),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.RandomAccess{Region: b.region(120_000), PCCount: 2048,
					WriteFrac: 0.1, PCBase: searchPCs, GapMean: 3}}, 4),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "481.wrf", Class: "scan with reuse", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(27_000), SegBlocks: 9_000,
					Fresh: true, MinUses: 2, MaxUses: 4, UseProb: 0.8, FinalProb: 0.9, PCBase: b.pcBase(), GapMean: 3}}, 3),
				ws(&trace.Stream{Region: b.region(56_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 1),
			)
		},
	})
	register(Workload{
		Name: "482.sphinx3", Class: "thrashing scan", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Stream{Region: b.region(44_000), Burst: 2, PCBase: b.pcBase(), GapMean: 2}, 3),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(14_400), SegBlocks: 3_600,
					MinUses: 1, MaxUses: 2, UseProb: 0.8, PCBase: b.pcBase(), GapMean: 3}}, 1),
				ws(&trace.Repeat{Factor: 3, Kernel: &trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 2}}, 1),
			)
		},
	})
	register(Workload{
		Name: "483.xalancbmk", Class: "pointer chasing + random", InSubset: true,
		accesses: 2_600_000,
		build: func(b *builder) trace.Kernel {
			return trace.NewMix(
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.PointerChase{Region: b.region(28_000), PCCount: 128,
					PCBase: b.pcBase(), GapMean: 3}}, 2),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.RandomAccess{Region: b.region(16_000), PCCount: 512,
					PCBase: b.pcBase(), GapMean: 3}}, 1),
				ws(&trace.Repeat{Factor: 2, Kernel: &trace.Generational{Region: b.region(22_400), SegBlocks: 5_600,
					MinUses: 1, MaxUses: 2, UseProb: 0.75, FinalProb: 0.88, PCBase: b.pcBase(), GapMean: 3}}, 2),
			)
		},
	})

	// --- The ten cache-insensitive benchmarks the paper excludes. ---
	// Working sets fit in (or barely exceed) the L2, so even optimal
	// replacement cannot reduce their LLC misses meaningfully.

	registerInsensitive := func(name, class string, build func(b *builder) trace.Kernel) {
		register(Workload{Name: name, Class: class, accesses: 1_000_000, build: build})
	}
	registerInsensitive("410.bwaves", "L2-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(3_000), PCBase: b.pcBase(), GapMean: 3}, 4),
			ws(&trace.Stream{Region: b.region(6_000), Burst: 2, PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("454.calculix", "L2-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(2_500), PCBase: b.pcBase(), GapMean: 3}, 3),
			ws(&trace.Generational{Region: b.region(5_000), SegBlocks: 5_000,
				MinUses: 5, MaxUses: 6, PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("447.dealII", "L2-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(3_000), PCBase: b.pcBase(), GapMean: 3}, 2),
			ws(&trace.Stream{Region: b.region(8_000), PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("416.gamess", "compute bound", func(b *builder) trace.Kernel {
		return &trace.HotSet{Region: b.region(1_000), PCBase: b.pcBase(), GapMean: 4}
	})
	registerInsensitive("445.gobmk", "L2-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 3}, 3),
			ws(&trace.RandomAccess{Region: b.region(6_000), PCCount: 512,
				PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("464.h264ref", "LLC-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 3}, 2),
			ws(&trace.Stream{Region: b.region(10_000), Burst: 3, PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("444.namd", "LLC-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(3_000), PCBase: b.pcBase(), GapMean: 3}, 3),
			ws(&trace.Stream{Region: b.region(12_000), Burst: 2, PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("453.povray", "compute bound", func(b *builder) trace.Kernel {
		return &trace.HotSet{Region: b.region(1_500), PCBase: b.pcBase(), GapMean: 4}
	})
	registerInsensitive("458.sjeng", "L2-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(2_000), PCBase: b.pcBase(), GapMean: 3}, 2),
			ws(&trace.RandomAccess{Region: b.region(8_000), PCCount: 256,
				PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
	registerInsensitive("465.tonto", "LLC-resident", func(b *builder) trace.Kernel {
		return trace.NewMix(
			ws(&trace.HotSet{Region: b.region(2_500), PCBase: b.pcBase(), GapMean: 3}, 2),
			ws(&trace.Generational{Region: b.region(6_000), SegBlocks: 6_000,
				MinUses: 4, MaxUses: 5, PCBase: b.pcBase(), GapMean: 3}, 1),
		)
	})
}
