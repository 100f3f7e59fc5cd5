package trace

// Native Go fuzz target for the binary trace format: arbitrary bytes
// must never panic the parser, and anything the parser accepts must
// survive a serialize⇄parse round trip record-for-record. Run the
// full fuzzer with
//
//	go test ./internal/trace -run '^$' -fuzz FuzzTraceFileRoundTrip -fuzztime 30s
//
// Without -fuzz the committed corpus and the seeds below run as plain
// tests.

import (
	"bytes"
	"testing"
)

// seedTrace serializes a small deterministic stream so the corpus
// starts with structurally valid inputs.
func seedTrace(tb testing.TB, kernel Kernel, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Write(&buf, NewProgram(kernel, n, 7)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzTraceFileRoundTrip(f *testing.F) {
	region := Region{Base: 0x10000, Blocks: 64}
	f.Add(seedTrace(f, &Stream{Region: region, Burst: 2, Lag: 4, GapMean: 3}, 200))
	f.Add(seedTrace(f, &PointerChase{Region: region, PCCount: 4}, 100))
	f.Add(seedTrace(f, &RandomAccess{Region: region, PCCount: 8, WriteFrac: 0.5}, 100))
	f.Add(traceMagic[:])                                    // header only, truncated count
	f.Add([]byte("SDBPTRC9"))                               // wrong magic
	f.Add([]byte{})                                         // empty input
	f.Add(append(append([]byte{}, traceMagic[:]...), 0x05)) // count 5, no records

	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly: that is the contract
		}
		// Round trip: what the parser accepted must reserialize and
		// reparse to the identical record sequence.
		var buf bytes.Buffer
		n, err := Write(&buf, r1)
		if err != nil {
			t.Fatalf("serializing a parsed trace failed: %v", err)
		}
		if n != r1.Length() {
			t.Fatalf("wrote %d of %d records", n, r1.Length())
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("reparsing a serialized trace failed: %v", err)
		}
		if r2.Length() != r1.Length() {
			t.Fatalf("round trip changed record count: %d != %d", r2.Length(), r1.Length())
		}
		r1.Reset()
		first, again := Collect(r1), Collect(r2)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("record %d changed across round trip:\n first: %+v\n again: %+v", i, first[i], again[i])
			}
		}
	})
}

// FuzzProgramDeterminism pins the generator contract the golden tests
// and multicore first-pass counting rely on: Reset replays the
// identical stream, from any seed and length.
func FuzzProgramDeterminism(f *testing.F) {
	f.Add(uint64(1), uint16(100))
	f.Add(uint64(0xdeadbeef), uint16(1))
	f.Add(uint64(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		k := NewMix(
			Weighted{Kernel: &Stream{Region: Region{Base: 0, Blocks: 32}, Lag: 2}, Weight: 3},
			Weighted{Kernel: &RandomAccess{Region: Region{Base: 1 << 20, Blocks: 64}, PCCount: 4}, Weight: 1},
		)
		p := NewProgram(k, int(n)%1024, seed)
		first := Collect(p)
		p.Reset()
		second := Collect(p)
		if len(first) != len(second) {
			t.Fatalf("replay length %d != %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("access %d differs across Reset: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}
