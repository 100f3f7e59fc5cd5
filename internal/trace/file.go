package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sdbp/internal/mem"
)

// Binary trace format: a magic header followed by delta-encoded access
// records. PCs and addresses are written as zig-zag varint deltas from
// the previous record (reference streams are locally correlated, so
// deltas compress well); flags and the gap share a final varint.
//
//	header:  "SDBPTRC1" | varint(count)
//	record:  svarint(pcDelta) | svarint(addrDelta) |
//	         varint(gap<<3 | dep<<2 | write<<1 | threadBitsFollow)
//	         [varint(thread) when threadBitsFollow]

var traceMagic = [8]byte{'S', 'D', 'B', 'P', 'T', 'R', 'C', '1'}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Write serializes a stream of accesses. It drains the generator.
func Write(w io.Writer, g BatchGenerator) (int, error) {
	// Count first: deterministic generators replay exactly.
	var recs [256]mem.Access
	n := 0
	for k := g.NextBatch(recs[:]); k > 0; k = g.NextBatch(recs[:]) {
		n += k
	}
	g.Reset()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return 0, err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	putS := func(v int64) error {
		k := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	if err := put(uint64(n)); err != nil {
		return 0, err
	}

	var prevPC, prevAddr uint64
	written := 0
	for k := g.NextBatch(recs[:]); k > 0; k = g.NextBatch(recs[:]) {
		for _, a := range recs[:k] {
			if err := putS(int64(a.PC - prevPC)); err != nil {
				return written, err
			}
			if err := putS(int64(a.Addr - prevAddr)); err != nil {
				return written, err
			}
			prevPC, prevAddr = a.PC, a.Addr
			flags := uint64(a.Gap) << 3
			if a.DependentLoad {
				flags |= 1 << 2
			}
			if a.Write {
				flags |= 1 << 1
			}
			if a.Thread != 0 {
				flags |= 1
			}
			if err := put(flags); err != nil {
				return written, err
			}
			if a.Thread != 0 {
				if err := put(uint64(a.Thread)); err != nil {
					return written, err
				}
			}
			written++
		}
	}
	return written, bw.Flush()
}

// NewReader parses a serialized trace into a Replay of its records.
func NewReader(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	const maxReasonable = 1 << 30
	if count > maxReasonable {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, count)
	}

	records := make([]mem.Access, 0, count)
	var pc, addr uint64
	for i := uint64(0); i < count; i++ {
		dpc, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d pc: %v", ErrBadTrace, i, err)
		}
		daddr, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d addr: %v", ErrBadTrace, i, err)
		}
		flags, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d flags: %v", ErrBadTrace, i, err)
		}
		pc += uint64(dpc)
		addr += uint64(daddr)
		a := mem.Access{
			PC:            pc,
			Addr:          addr,
			Gap:           uint32(flags >> 3),
			DependentLoad: flags&(1<<2) != 0,
			Write:         flags&(1<<1) != 0,
		}
		if flags&1 != 0 {
			tid, err := binary.ReadUvarint(br)
			if err != nil || tid > 255 {
				return nil, fmt.Errorf("%w: record %d thread", ErrBadTrace, i)
			}
			a.Thread = uint8(tid)
		}
		records = append(records, a)
	}
	return NewReplay(records), nil
}
