package probe

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzJSONLRoundTrip feeds extreme counter values through the interval
// record constructor and the JSONL codec: the encoder must never fail
// (every derived rate is finite by construction, and uint64 counters
// must survive JSON exactly, including values above 2^53), decoding
// must never panic, and decode(encode(x)) must equal x.
func FuzzJSONLRoundTrip(f *testing.F) {
	f.Add(uint64(100_000), uint64(250_000), uint64(4000), uint64(1500),
		uint64(4000), uint64(900), uint64(25), uint64(3))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1)<<53+1, uint64(1)<<63, uint64(1), uint64(0), uint64(7), uint64(7), uint64(7), uint64(1))
	f.Fuzz(func(t *testing.T, instr, cycles, accesses, misses, preds, pos, fps, pcSeed uint64) {
		hits := accesses - misses // may wrap; the codec must not care
		iv := Interval{
			Index:           0,
			Instructions:    instr,
			DInstructions:   instr,
			DCycles:         cycles,
			DAccesses:       accesses,
			DHits:           hits,
			DMisses:         misses,
			DBypasses:       misses / 2,
			DEvictions:      misses / 3,
			DPredictions:    preds,
			DPositives:      pos,
			DFalsePositives: fps,
		}
		iv.ComputeRates()
		in := []Series{{
			Run: Run{
				Benchmark: "fuzz", Policy: "fuzz DBRB/LRU", Interval: instr,
				Instructions: instr, Cycles: cycles,
				IPC:      ratio(instr, cycles),
				Accesses: accesses, Misses: misses, Evictions: misses / 3,
				Predictions: preds, Positives: pos, FalsePositives: fps,
			},
			Intervals: []Interval{iv},
			PCs: []PCRow{
				{PC: PCHex(pcSeed), Predictions: preds, Positives: pos, FalsePositives: fps, Evictions: misses / 3},
				{PC: "0x0", Other: true},
			},
		}}
		b, err := MarshalJSONL(in)
		if err != nil {
			t.Fatalf("encode failed: %v", err)
		}
		out, err := ReadJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("decode failed: %v\njsonl:\n%s", err, b)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed the series\nin:  %+v\nout: %+v\njsonl:\n%s", in, out, b)
		}
		// The trace-event encoder must not fail or panic on the same
		// extremes either.
		if err := WriteTraceEvents(&bytes.Buffer{}, in); err != nil {
			t.Fatalf("trace-event encode failed: %v", err)
		}
	})
}

// FuzzReadJSONL throws arbitrary bytes at the decoder: it may reject
// them, but must never panic, and anything it accepts must re-encode
// and re-decode to the same value.
func FuzzReadJSONL(f *testing.F) {
	seed, _ := MarshalJSONL(sampleSeries())
	f.Add(seed)
	f.Add([]byte(`{"type":"run","benchmark":"x"}`))
	f.Add([]byte(`{"type":"interval"}`))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		series, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := MarshalJSONL(series)
		if err != nil {
			// Hand-crafted input can smuggle NaN-producing floats into
			// rate fields via JSON numbers; those re-encode fine (JSON
			// can't express NaN), so an encode error here is a bug.
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded output failed to decode: %v\njsonl:\n%s", err, b)
		}
		if !reflect.DeepEqual(series, again) {
			t.Fatalf("re-encode changed the series\nfirst:  %+v\nsecond: %+v", series, again)
		}
	})
}
