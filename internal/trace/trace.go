// Package trace provides the synthetic memory reference streams the
// reproduction substitutes for SPEC CPU 2006 traces, built from a small
// set of composable kernels that reproduce the statistical properties
// dead block prediction depends on: PC-correlated last touches,
// generational reuse, streaming, pointer chasing, thrashing, and
// unpredictable reference behavior.
package trace

import "sdbp/internal/mem"

// BatchGenerator produces a finite, deterministic stream of memory
// accesses a buffer at a time, so drive loops pay the interface
// dispatch once per batch instead of once per access.
type BatchGenerator interface {
	// Reset rewinds the generator to the beginning of the identical
	// stream.
	Reset()
	// NextBatch fills dst from the stream and returns how many accesses
	// were produced; 0 means the stream is exhausted.
	NextBatch(dst []mem.Access) int
}

// Region is a contiguous range of cache blocks a kernel works over.
type Region struct {
	// Base is the region's starting byte address (block aligned).
	Base uint64
	// Blocks is the region's length in cache blocks.
	Blocks int
}

// Addr returns the byte address of block i (mod the region length) at
// the given intra-block offset.
func (r Region) Addr(i int, offset int) uint64 {
	// Kernels almost always pass an in-range index; the reduction is
	// only needed for wrapped cursors and negative strides.
	if uint(i) >= uint(r.Blocks) {
		i %= r.Blocks
		if i < 0 {
			i += r.Blocks
		}
	}
	return r.Base + uint64(i)*mem.BlockSize + uint64(offset&(mem.BlockSize-1))
}

// Bytes returns the region size in bytes.
func (r Region) Bytes() int { return r.Blocks * mem.BlockSize }

// Kernel is one memory-behavior building block. Kernels are composed by
// Mix and driven by a Program; all randomness flows through the passed
// generator so streams are reproducible.
type Kernel interface {
	// Reset reinitializes kernel state (permutations, cursors).
	Reset(r *mem.Rand)
	// Step emits the kernel's next access.
	Step(r *mem.Rand) mem.Access
}

// intnCache memoizes the Divisor for one bounded-random call site whose
// bound is loop-invariant in practice (gap ranges, mix weights, region
// sizes), replacing the hardware divide in the generation hot path. The
// draw matches r.Intn(n) bit-for-bit and re-derives the Divisor if the
// bound ever changes. draw and its check stay small enough to inline
// into the kernel Step methods; only the cold rebuild is a call.
type intnCache struct {
	div mem.Divisor
}

func (c *intnCache) draw(r *mem.Rand, n int) int {
	if c.div.D() != uint64(n) {
		c.rebuild(n)
	}
	return int(c.div.Mod(r.Uint64()))
}

func (c *intnCache) rebuild(n int) {
	if n <= 0 {
		panic("mem.Rand.Intn: n must be positive")
	}
	c.div = mem.NewDivisor(uint64(n))
}

// gapCache samples the non-memory instruction gap preceding an access,
// uniform in [0, 2*mean] so the mean is mean; non-positive means draw
// nothing and yield 0. It is an intnCache for the divisor 2m+1.
type gapCache struct {
	c intnCache
}

func (g *gapCache) draw(r *mem.Rand, mean int) uint32 {
	if mean <= 0 {
		return 0
	}
	return uint32(g.c.draw(r, 2*mean+1))
}

// Program adapts a Kernel to the BatchGenerator interface, bounding the
// stream length and owning the deterministic random source.
type Program struct {
	kernel Kernel
	length int
	seed   uint64

	r *mem.Rand
	n int
}

// NewProgram wraps kernel in a generator producing length accesses from
// the given seed.
func NewProgram(kernel Kernel, length int, seed uint64) *Program {
	if length < 0 {
		panic("trace: negative program length")
	}
	p := &Program{kernel: kernel, length: length, seed: seed, r: mem.NewRand(seed)}
	p.kernel.Reset(p.r)
	return p
}

// Reset implements BatchGenerator.
func (p *Program) Reset() {
	p.r.Seed(p.seed)
	p.kernel.Reset(p.r)
	p.n = 0
}

// NextBatch implements BatchGenerator.
func (p *Program) NextBatch(dst []mem.Access) int {
	n := p.length - p.n
	if n > len(dst) {
		n = len(dst)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = p.kernel.Step(p.r)
	}
	p.n += n
	return n
}

// Replay is the in-memory stream: NextBatch yields exactly the accesses
// of a slice, and Reset rewinds to the start. Replaying a memoized
// stream costs one bulk copy per batch where regenerating it costs the
// full kernel machinery per access (see sim.RunMulticore's member
// streams), and a decoded trace file replays the same way (see
// NewReader).
type Replay struct {
	s []mem.Access
	n int
}

// NewReplay wraps a collected stream. The slice is shared, not copied;
// callers must not mutate it.
func NewReplay(s []mem.Access) *Replay { return &Replay{s: s} }

// Reset implements BatchGenerator.
func (r *Replay) Reset() { r.n = 0 }

// NextBatch implements BatchGenerator.
func (r *Replay) NextBatch(dst []mem.Access) int {
	n := copy(dst, r.s[r.n:])
	r.n += n
	return n
}

// Length returns the stream's total access count.
func (r *Replay) Length() int { return len(r.s) }

// Collect drains a generator into a slice (tests and MIN capture).
func Collect(g BatchGenerator) []mem.Access {
	var out []mem.Access
	var buf [256]mem.Access
	for n := g.NextBatch(buf[:]); n > 0; n = g.NextBatch(buf[:]) {
		out = append(out, buf[:n]...)
	}
	return out
}
