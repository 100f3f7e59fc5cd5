// Package mem defines the core datatypes shared by every layer of the
// simulator: memory accesses as seen by the cache hierarchy, block/set
// address arithmetic, and the deterministic pseudo-random number sources
// used throughout the reproduction.
package mem

// BlockBits is log2 of the cache block size. The paper models 64-byte
// blocks at every level of the hierarchy.
const BlockBits = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockBits

// Access is a single memory reference as issued by a core. It carries the
// program counter of the instruction making the access, which is the raw
// material for all of the paper's dead block predictors.
//
// The simulator moves accesses through the hierarchy in blocks (slices
// of Access), so the layout is tuned for block-array locality: the
// fields every level reads on every access (PC, Addr, Gap) lead, the
// flag bytes trail, and the total is exactly 24 bytes with one spare
// trailing byte — pinned by TestAccessLayout so a new field cannot
// silently widen every block buffer.
type Access struct {
	// PC is the address of the instruction making the access. Synthetic
	// workloads assign a stable PC per code site.
	PC uint64
	// Addr is the byte address accessed.
	Addr uint64
	// Gap is the number of non-memory instructions retired between the
	// previous access and this one. It converts the memory trace back
	// into an instruction count for MPKI and IPC.
	Gap uint32
	// Write is true for stores.
	Write bool
	// DependentLoad marks a load whose address depends on the previous
	// load's value (pointer chasing). The CPU model serializes such loads
	// rather than overlapping their misses.
	DependentLoad bool
	// Thread identifies the hardware thread issuing the access. It is 0
	// for single-thread runs and the core index for multi-core runs.
	Thread uint8
}

// BlockAddr returns the block-aligned address (the block number shifted
// back into an address, i.e. the address with the offset bits cleared).
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// BlockNumber returns the block number of an address.
func BlockNumber(addr uint64) uint64 { return addr >> BlockBits }

// SetIndex extracts the set index for a cache with the given number of
// sets (which must be a power of two).
func SetIndex(addr uint64, sets int) uint32 {
	return uint32(BlockNumber(addr) & uint64(sets-1))
}

// Tag returns the tag for an address in a cache with the given number of
// sets: the block number with the set index bits removed.
func Tag(addr uint64, setBits int) uint64 {
	return BlockNumber(addr) >> uint(setBits)
}

// Log2 returns floor(log2(n)) for n >= 1. It panics on n < 1 because the
// simulator only ever sizes structures with positive power-of-two
// geometries and a silent 0 would corrupt address arithmetic.
func Log2(n int) int {
	if n < 1 {
		panic("mem.Log2: argument must be >= 1")
	}
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
