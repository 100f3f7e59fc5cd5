package exp_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/memo"
	"sdbp/internal/serve"
	"sdbp/internal/workloads"
)

// TestSampledPilotsStayWithinMemoBudget submits distinct sampled specs
// at scale 0.05, one pilot of about 5 MB each, until they overflow
// memo.Budget. The memo's bytes and the live heap must stay within the
// budget plus the largest entry (so no entry's size is undercounted), a
// second policy on a resident pilot must reuse it, and the first spec,
// whose pilot is evicted by then, must recompute a byte-identical
// manifest.
func TestSampledPilotsStayWithinMemoBudget(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(interval uint64, policy string) *exp.Resolved {
		t.Helper()
		r, err := exp.Spec{Policy: policy, Workloads: []string{w.Name}, Scale: 0.05,
			Sampled: true, SampleInterval: interval}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	manifest := func(r *exp.Resolved) []byte {
		t.Helper()
		res, err := serve.ExecuteSpec(context.Background(), r, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	heap := func() int {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}

	// A budget-sized entry of a throwaway Cache evicts whatever earlier
	// tests left, and the stream's admission evicts it in turn: from
	// here on, each spec admits exactly one entry, its pilot, so a step
	// that evicts nothing measures that pilot's size.
	memo.New[int, int]().Put(0, 0, memo.Budget)
	base := heap()
	w.Instructions(0.05)

	interval := uint64(exp.DefaultSampleInterval)
	first := resolve(interval, "lru")
	want := manifest(first)
	largest := 0
	for start := memo.Stats(); ; {
		interval += 1000
		before := memo.Stats()
		manifest(resolve(interval, "lru"))
		u := memo.Stats()
		if u.Evictions == before.Evictions {
			largest = max(largest, u.Bytes-before.Bytes)
		}
		if u.Bytes > memo.Budget+largest {
			t.Fatalf("interval %d: memo holds %d bytes, over the budget plus the largest entry (%d + %d)",
				interval, u.Bytes, memo.Budget, largest)
		}
		if u.Evictions > start.Evictions {
			break // the coldest pilot, the first spec's, is gone
		}
		if interval > exp.DefaultSampleInterval+40_000 {
			t.Fatalf("40 distinct pilots never overflowed the budget: %+v", u)
		}
	}
	if grown := heap() - base; grown > memo.Budget+largest {
		t.Errorf("live heap grew by %d bytes, over the budget plus the largest entry (%d + %d)",
			grown, memo.Budget, largest)
	}

	// Two policies on the resident pilot of the last spec share it.
	_, planLRU, err := resolve(interval, "lru").RunBenchSampled(w)
	if err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()
	_, planSampler, err := resolve(interval, "Sampler").RunBenchSampled(w)
	if err != nil {
		t.Fatal(err)
	}
	if planSampler != planLRU || memo.Stats() != before {
		t.Error("a second policy on a resident pilot piloted again")
	}

	// The first pilot was evicted: recomputing it admits an entry, and
	// the manifest is the same to the byte.
	before = memo.Stats()
	if got := manifest(first); !bytes.Equal(got, want) {
		t.Errorf("the evicted pilot recomputed a different manifest:\n%s\nwant\n%s", got, want)
	}
	if memo.Stats() == before {
		t.Error("the first spec's pilot is still resident; the budget never overflowed it")
	}
}
