package sim

import (
	"math"

	"sdbp/internal/cache"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/memo"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// memoMaxAccesses is the longest stream the package keeps in the process
// memo: Filter's private-level output (filteredStream) and RunMulticore's
// member streams. A member stream at the cap is 12 MiB, a quarter of
// memo.Budget. Every full-scale stream is longer, and is generated as it
// is consumed.
const memoMaxAccesses = 512 << 10

// streamKey identifies one workload's stream: Generator's output depends
// only on the workload and the stream's length in accesses.
type streamKey struct {
	name string
	n    int
}

// filteredStream is the output of the paper's private L1/L2 stack
// (hier.DefaultConfig) for one whole stream, in compact form: each
// access's F* flags and original gap, the PC and address of each
// LLC-bound record in stream order, and the private levels' final
// statistics. Replay rebuilds the rest of an LLC-bound record from the
// flags and gaps. That is 6 bytes per access plus 16 per LLC-bound
// record, always less than the raw stream's 24 per access. It is
// read-only once filled.
type filteredStream struct {
	flags  []uint16
	gaps   []uint32
	llc    []llcRef
	l1, l2 cache.Stats
}

// llcRef is what replay cannot rebuild of an LLC-bound record.
type llcRef struct {
	pc, addr uint64
}

var filteredStreams = memo.New[streamKey, *filteredStream]()

// memoFiltered returns w's filtered stream at scale from the process
// memo, filling it on the first call. The fill runs Filter's generated
// path with a consumer that only copies the records, so no policy code
// runs in it: a run that panics in its own LLC leg cannot fail a fill
// other runs wait on.
func memoFiltered(w workloads.Workload, scale float64) *filteredStream {
	n := w.Accesses(scale)
	s, err := filteredStreams.Do(streamKey{w.Name, n}, func() (*filteredStream, int, error) {
		s := &filteredStream{flags: make([]uint16, 0, n), gaps: make([]uint32, 0, n)}
		var llc []llcRef
		s.l1, s.l2 = filterGenerated(w, scale, func(recs []hier.Filtered) {
			for i := range recs {
				f := &recs[i]
				s.flags = append(s.flags, f.Flags)
				s.gaps = append(s.gaps, f.Gap)
				if f.Flags&hier.FLLCBound != 0 {
					llc = append(llc, llcRef{f.LLC.PC, f.LLC.Addr})
				}
			}
		})
		// Keep the records at their exact length: append's growth would
		// hold up to a quarter more for the entry's life.
		s.llc = append(make([]llcRef, 0, len(llc)), llc...)
		return s, s.bytes(), nil
	})
	if err != nil {
		// Only a fill that panicked fails, and it panicked on the
		// goroutine that ran it; its waiters fail with it.
		panic(err)
	}
	return s
}

// bytes is the stream's memo size.
func (s *filteredStream) bytes() int {
	return memo.SliceBytes(s.flags) + memo.SliceBytes(s.gaps) + memo.SliceBytes(s.llc)
}

// replay hands consume the stream's records, chunkSize at a time in
// stream order, rebuilt into one buffer on the caller's goroutine: the
// chunks the generated path hands over. An LLC-bound record gets back
// its store and dependence bits from its flags, and its gap rewritten
// as hier.Core.FilterBlock rewrites it: the instructions since the
// previous LLC-bound record, saturating at the largest uint32.
func (s *filteredStream) replay(consume func(recs []hier.Filtered)) {
	buf := make([]hier.Filtered, chunkSize)
	j := 0             // next LLC-bound record
	var pending uint64 // instructions since the previous LLC-bound record
	for lo := 0; lo < len(s.flags); lo += chunkSize {
		flags := s.flags[lo:min(lo+chunkSize, len(s.flags))]
		gaps := s.gaps[lo : lo+len(flags)]
		recs := buf[:len(flags)]
		// Each field is stored into the buffer directly: building a record
		// on the stack and copying it costs a store-forwarding stall per
		// record, more than doubling the replay's time.
		for i, fl := range flags {
			pending += uint64(gaps[i]) + 1
			r := &recs[i]
			r.Gap, r.Flags = gaps[i], fl
			if fl&hier.FLLCBound == 0 {
				r.LLC = mem.Access{}
				continue
			}
			r.LLC.PC, r.LLC.Addr = s.llc[j].pc, s.llc[j].addr
			r.LLC.Gap = uint32(min(pending-1, math.MaxUint32))
			r.LLC.Write, r.LLC.DependentLoad, r.LLC.Thread = fl&hier.FWrite != 0, fl&hier.FDep != 0, 0
			j++
			pending = 0
		}
		consume(recs)
	}
}

var memberStreams = memo.New[streamKey, []mem.Access]()

// memberGenerator returns w's stream at scale for one core of a
// multicore run. A mix restarts each member's stream until every member
// has finished a pass, and every policy's cell walks the same streams,
// so a stream of at most memoMaxAccesses is generated once, kept in the
// process memo and replayed; a longer one is generated as it is
// consumed.
func memberGenerator(w workloads.Workload, scale float64) trace.BatchGenerator {
	n := w.Accesses(scale)
	if n > memoMaxAccesses {
		return w.Generator(scale)
	}
	s, err := memberStreams.Do(streamKey{w.Name, n}, func() ([]mem.Access, int, error) {
		s := make([]mem.Access, n)
		w.Generator(scale).NextBatch(s)
		return s, memo.SliceBytes(s), nil
	})
	if err != nil {
		panic(err)
	}
	return trace.NewReplay(s)
}
