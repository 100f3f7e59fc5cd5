package policytest

import (
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/mem"
	"sdbp/internal/sim"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// The batch-vs-scalar differential: the block-granular access path
// (cache.AccessBatch, cache.AccessPrivate, hier.Core.FilterBlock) is
// pinned byte-identical to the per-access path for every registry
// policy spelling. The chunk size deliberately does not divide the
// stream length, so every run also exercises a trailing short batch.
const batchChunk = 256

// llcStream captures one LLC-bound stream (private filtering is plain
// LRU and policy-independent, so one capture serves every policy).
func llcStream(t *testing.T) []mem.Access {
	t.Helper()
	w, err := workloads.ByName(conformanceBench)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.RunSingle(w, exp.MustResolvePolicy("LRU").Make(1),
		sim.SingleOptions{Scale: conformanceScale, LLC: conformanceLLC, CaptureStream: true})
	if len(r.Stream) == 0 {
		t.Fatal("no LLC traffic captured")
	}
	return r.Stream
}

// TestBatchDifferential drives the captured LLC stream through
// AccessBatch and per-access Access for every registry spelling: stats,
// per-access results, and final tag state must be byte-identical.
func TestBatchDifferential(t *testing.T) {
	stream := llcStream(t)
	for _, expr := range exprsUnderTest(t) {
		if msg := BatchDifferential(expr, conformanceLLC, stream, batchChunk); msg != "" {
			t.Errorf("%q: batch vs scalar: %s", expr, msg)
		}
	}
}

// TestHierBatchDifferential drives the raw demand stream through
// hier.Core.FilterBlock + cache.AccessBatch and per-access Access for
// every registry spelling, covering the private-level fast path
// (AccessPrivate) and the LLC batch leg end to end.
func TestHierBatchDifferential(t *testing.T) {
	w, err := workloads.ByName(conformanceBench)
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.Collect(w.Generator(conformanceScale))
	for _, expr := range exprsUnderTest(t) {
		if msg := HierBatchDifferential(expr, conformanceLLC, stream, batchChunk); msg != "" {
			t.Errorf("%q: hierarchy batch vs scalar: %s", expr, msg)
		}
	}
}
