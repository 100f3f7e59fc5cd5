// Hot-path benchmarks and allocation pins for the per-access
// simulation path — the wall-clock of the whole evaluation suite.
//
//	go test -bench 'LLCAccess|SingleCoreCampaign' -benchmem -run '^$'
//
// CI runs these and publishes the parsed results as
// BENCH_hotpath.json (see cmd/benchjson); the committed copy at the
// repo root records the before/after numbers of the hot-path
// optimization PR.
package sdbp

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// llcStream captures a benchmark's LLC-level reference stream (the
// post-L1/L2 traffic an LLC policy actually sees) once per process.
func llcStream(tb testing.TB, bench string) []mem.Access {
	tb.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	r := sim.RunSingle(w, policy.NewLRU(), sim.SingleOptions{Scale: 0.1, CaptureStream: true})
	if len(r.Stream) == 0 {
		tb.Fatalf("no LLC traffic captured for %s", bench)
	}
	return r.Stream
}

// samplerLLC builds the paper's LLC configuration under the full
// sampling dead-block replacement-and-bypass stack.
func samplerLLC() *cache.Cache {
	pol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	return cache.New(hier.LLCConfig(1), pol)
}

// BenchmarkLLCAccess measures the steady-state per-access cost of the
// LLC under the sampling dead-block policy — lookup, predictor,
// replacement and efficiency accounting, with no generator or private
// caches in the loop. The steady state must be allocation free.
func BenchmarkLLCAccess(b *testing.B) {
	stream := llcStream(b, "456.hmmer")
	llc := samplerLLC()
	// Warm up: first pass populates the cache and predictor tables.
	for _, a := range stream {
		llc.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(stream[i%len(stream)])
	}
}

// BenchmarkLLCAccessAttribution is the same loop with per-PC death
// attribution enabled (experiments -interval). The delta against
// BenchmarkLLCAccess is the introspection tax a probed run pays; the
// disabled path's zero-cost contract is pinned separately by
// TestLLCAccessSteadyStateAllocs.
func BenchmarkLLCAccessAttribution(b *testing.B) {
	stream := llcStream(b, "456.hmmer")
	pol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	pol.EnableAttribution()
	llc := cache.New(hier.LLCConfig(1), pol)
	for _, a := range stream {
		llc.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(stream[i%len(stream)])
	}
}

// BenchmarkLLCAccessLRU is the same loop under plain LRU — the floor
// any policy-side overhead is judged against.
func BenchmarkLLCAccessLRU(b *testing.B) {
	stream := llcStream(b, "456.hmmer")
	llc := cache.New(hier.LLCConfig(1), policy.NewLRU())
	for _, a := range stream {
		llc.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(stream[i%len(stream)])
	}
}

// BenchmarkLLCAccessBatch measures the steady-state per-access cost of
// the same sampling-policy LLC driven through the block-granular
// AccessBatch entry point in 256-access chunks. The delta against
// BenchmarkLLCAccess is what batching the dispatch is worth at the LLC
// alone (the private-level filter loops show up only in the campaign
// benchmarks).
func BenchmarkLLCAccessBatch(b *testing.B) {
	stream := llcStream(b, "456.hmmer")
	llc := samplerLLC()
	llc.AccessBatch(stream, nil) // warm up
	const chunk = 256
	rs := make([]cache.Result, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		lo := done % len(stream)
		n := chunk
		if lo+n > len(stream) {
			n = len(stream) - lo
		}
		if n > b.N-done {
			n = b.N - done
		}
		llc.AccessBatch(stream[lo:lo+n], rs[:n])
		done += n
	}
}

// BenchmarkSingleCoreCampaign measures one full single-core simulation
// — the sampling policy's LLC and the core timing model over 456.hmmer
// ×0.1 — per iteration. This is the unit the evaluation suite runs
// hundreds of times, so its ns/op is the campaign's wall-clock. The
// stream is memo-sized: it is generated and run through L1/L2 once, and
// every iteration replays the private levels' output from the memo, as
// every cell of a small-scale campaign after the stream's first does.
func BenchmarkSingleCoreCampaign(b *testing.B) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
		r := sim.RunSingle(w, pol, sim.SingleOptions{Scale: 0.1})
		if r.LLC.Accesses == 0 {
			b.Fatal("simulation saw no LLC traffic")
		}
	}
}

// BenchmarkMulticoreCampaign measures one quad-core shared-LLC run —
// four goroutine-parallel private-filter producers, replaying their
// memo-sized member streams, feeding the timestamp-ordered LLC merge —
// per iteration, at the figure campaigns' multicore scale.
func BenchmarkMulticoreCampaign(b *testing.B) {
	mixes := workloads.Mixes()
	if len(mixes) == 0 {
		b.Fatal("no mixes registered")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
		r, err := sim.RunMulticore(mixes[0], pol, sim.MulticoreOptions{Scale: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		if r.LLC.Accesses == 0 {
			b.Fatal("simulation saw no LLC traffic")
		}
	}
}

// TestLLCAccessSteadyStateAllocs pins the zero-allocation contract of
// the steady-state LLC access path, for both the baseline LRU cache
// and the full sampling dead-block stack: once warm, Access must not
// allocate. testing.AllocsPerRun fails this test the moment a
// per-access closure, boxed interface value or table reallocation
// sneaks back in.
func TestLLCAccessSteadyStateAllocs(t *testing.T) {
	stream := llcStream(t, "456.hmmer")
	attrPol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	attrPol.EnableAttribution()
	caches := map[string]*cache.Cache{
		"LRU":         cache.New(hier.LLCConfig(1), policy.NewLRU()),
		"Sampler":     samplerLLC(),
		"SamplerAttr": cache.New(hier.LLCConfig(1), attrPol),
	}
	for name, llc := range caches {
		for _, a := range stream {
			llc.Access(a)
		}
		i := 0
		avg := testing.AllocsPerRun(1000, func() {
			llc.Access(stream[i%len(stream)])
			i++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state Access allocates %.2f allocs/op, want 0", name, avg)
		}
	}
}
