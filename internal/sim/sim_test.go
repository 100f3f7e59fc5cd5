package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/memo"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/sampling"
	"sdbp/internal/workloads"
)

const testScale = 0.02

func hmmer(t *testing.T) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSingleBasics(t *testing.T) {
	r := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale})
	if r.Benchmark != "456.hmmer" || r.Policy != "LRU" {
		t.Errorf("labels = %s/%s", r.Benchmark, r.Policy)
	}
	if r.Instructions == 0 || r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("instructions=%d ipc=%v", r.Instructions, r.IPC)
	}
	if r.MPKI <= 0 {
		t.Errorf("MPKI = %v", r.MPKI)
	}
	if r.LLC.Accesses == 0 {
		t.Error("LLC saw no traffic")
	}
	if r.Efficiency < 0 || r.Efficiency > 1 {
		t.Errorf("efficiency = %v", r.Efficiency)
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	run := func() SingleResult {
		return RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale})
	}
	a, b := run(), run()
	if a.MPKI != b.MPKI || a.IPC != b.IPC || a.LLC != b.LLC {
		t.Error("runs not reproducible")
	}
}

func TestMPKIConsistency(t *testing.T) {
	r := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale})
	want := float64(r.LLC.Misses) / (float64(r.Instructions) / 1000)
	if math.Abs(r.MPKI-want) > 1e-9 {
		t.Errorf("MPKI = %v, want %v", r.MPKI, want)
	}
}

func TestCaptureStreamMatchesLLC(t *testing.T) {
	r := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale, CaptureStream: true})
	if uint64(len(r.Stream)) != r.LLC.Accesses {
		t.Errorf("captured %d, LLC accesses %d", len(r.Stream), r.LLC.Accesses)
	}
}

func TestCaptureStreamPolicyIndependent(t *testing.T) {
	// The L2-miss stream must be identical under any LLC policy — the
	// property the MIN methodology rests on.
	lru := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale, CaptureStream: true})
	smp := RunSingle(hmmer(t),
		dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
		SingleOptions{Scale: testScale, CaptureStream: true})
	if len(lru.Stream) != len(smp.Stream) {
		t.Fatalf("stream lengths differ: %d vs %d", len(lru.Stream), len(smp.Stream))
	}
	for i := range lru.Stream {
		if lru.Stream[i] != smp.Stream[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestAccuracyOnlyForDBRB(t *testing.T) {
	plain := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale})
	if plain.Accuracy != nil {
		t.Error("accuracy reported for a plain policy")
	}
	d := RunSingle(hmmer(t),
		dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
		SingleOptions{Scale: testScale})
	if d.Accuracy == nil {
		t.Fatal("no accuracy for DBRB")
	}
	if d.UpdateFraction <= 0 || d.UpdateFraction > 0.05 {
		t.Errorf("update fraction = %v, want ~1/64", d.UpdateFraction)
	}
}

func TestLLCSizeOption(t *testing.T) {
	big := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{
		Scale: testScale,
		LLC:   cache.Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16},
	})
	small := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{
		Scale: testScale,
		LLC:   cache.Config{Name: "LLC", SizeBytes: 512 << 10, Ways: 16},
	})
	if big.MPKI >= small.MPKI {
		t.Errorf("8MB MPKI %.2f >= 512KB MPKI %.2f", big.MPKI, small.MPKI)
	}
}

func TestRunMulticoreBasics(t *testing.T) {
	mix := workloads.Mixes()[0]
	r, err := RunMulticore(mix, policy.NewLRU(), MulticoreOptions{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if r.MixName != "mix1" {
		t.Errorf("mix name = %s", r.MixName)
	}
	for i, ipc := range r.IPC {
		if ipc <= 0 || ipc > 4 {
			t.Errorf("core %d IPC = %v", i, ipc)
		}
		if r.Instructions[i] == 0 {
			t.Errorf("core %d retired nothing", i)
		}
	}
	if r.MPKI <= 0 {
		t.Errorf("MPKI = %v", r.MPKI)
	}
}

func TestRunMulticoreDeterministic(t *testing.T) {
	mix := workloads.Mixes()[1]
	run := func() MulticoreResult {
		r, err := RunMulticore(mix, policy.NewTADIP(4, 3), MulticoreOptions{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.IPC != b.IPC || a.LLC != b.LLC {
		t.Error("multicore runs not reproducible")
	}
}

func TestRunMulticoreBadMixReturnsError(t *testing.T) {
	mix := workloads.Mix{Name: "bad-mix"}
	mix.Members = [4]string{"no.such", "no.such", "no.such", "no.such"}
	_, err := RunMulticore(mix, policy.NewLRU(), MulticoreOptions{Scale: testScale})
	if err == nil {
		t.Fatal("unknown mix member did not error")
	}
}

func TestSingleIPCBadNameReturnsError(t *testing.T) {
	_, err := SingleIPC("no.such", hier.LLCConfig(4), testScale,
		func() cache.Policy { return policy.NewLRU() })
	if err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestSharedCacheContention(t *testing.T) {
	// Each benchmark's IPC under contention must not exceed its IPC
	// running alone with the same total capacity.
	mix := workloads.Mixes()[0]
	r, err := RunMulticore(mix, policy.NewLRU(), MulticoreOptions{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range mix.Members {
		solo, err := SingleIPC(name, hier.LLCConfig(4), testScale,
			func() cache.Policy { return policy.NewLRU() })
		if err != nil {
			t.Fatal(err)
		}
		if r.IPC[i] > solo*1.02 { // small tolerance: interleaving jitter
			t.Errorf("%s: shared IPC %.3f exceeds solo IPC %.3f", name, r.IPC[i], solo)
		}
	}
}

// faultyPolicy is LRU with an out-of-range victim choice, so the first
// eviction in a full set panics inside cache.Access — on the drive
// loop's LLC leg, never in a producer.
type faultyPolicy struct{ *policy.LRU }

func (faultyPolicy) Name() string                  { return "faulty" }
func (faultyPolicy) Victim(uint32, mem.Access) int { return -1 }

// panicOf returns what run panicked with, recovering the panic as the
// runner and sdbpd do for a failing job, or nil if run returned.
func panicOf(run func()) (v any) {
	defer func() { v = recover() }()
	run()
	return nil
}

// perAccessRun is the loop RunSingle replaced, for checks that must not
// share its code: the generator, hier.Core.Access and cpu.Record, one
// access at a time.
func perAccessRun(w workloads.Workload, pol cache.Policy, scale float64, llcCfg cache.Config) SingleResult {
	llc := cache.New(llcCfg, pol)
	core := hier.NewCore(hier.DefaultConfig(), llc)
	timing := cpu.New(cpu.DefaultConfig())
	gen := w.Generator(scale)
	buf := make([]mem.Access, chunkSize)
	for n := gen.NextBatch(buf); n > 0; n = gen.NextBatch(buf) {
		for _, a := range buf[:n] {
			timing.Record(a.Gap, core.Access(a).Latency(), a.DependentLoad)
		}
	}
	return SingleResult{Instructions: timing.Instructions(), Cycles: uint64(timing.Cycles()), IPC: timing.IPC(),
		LLC: llc.Stats(), L1: core.L1.Stats(), L2: core.L2.Stats()}
}

// TestPolicyPanicStopsProducers pins that a policy panic reaches the
// caller's goroutine, where it can be recovered, and leaves no producer
// goroutine behind in any drive loop that starts them: the goroutine
// count returns to its baseline. RunSampledTrace runs the policy on its
// producer, which must hand the panic over rather than crash the
// process. RunSingle's stream is memo-sized and no other test runs it,
// so the faulty run fills its memo entry; the panic must leave that
// entry whole for the LRU run that follows.
func TestPolicyPanicStopsProducers(t *testing.T) {
	small := cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 3})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatal(err)
	}
	const panicScale = 0.019
	key := streamKey{hmmer(t).Name, hmmer(t).Accesses(panicScale)}
	if key.n > memoMaxAccesses {
		t.Fatalf("the RunSingle stream is %d accesses, over the memo's cap", key.n)
	}
	runs := []struct {
		name string
		run  func()
	}{
		{"RunSingle", func() {
			RunSingle(hmmer(t), faultyPolicy{policy.NewLRU()}, SingleOptions{Scale: panicScale, LLC: small})
		}},
		{"RunMulticore", func() {
			RunMulticore(workloads.Mixes()[0], faultyPolicy{policy.NewLRU()}, MulticoreOptions{Scale: testScale, LLC: small})
		}},
		{"RunSampledTrace", func() {
			RunSampledTrace(m, faultyPolicy{policy.NewLRU()}, SingleOptions{Scale: testScale, LLC: small})
		}},
	}
	for _, r := range runs {
		before := runtime.NumGoroutine()
		v := panicOf(r.run)
		if v == nil {
			t.Errorf("%s: the faulty policy did not panic", r.name)
			continue
		}
		// The caller must see the policy's own fault, not a drive loop's
		// complaint about a stream that ended early.
		if msg := fmt.Sprint(v); !strings.Contains(msg, "policy faulty returned victim way -1") {
			t.Errorf("%s: recovered %q, want the cache's check on the faulty policy's victim", r.name, msg)
		}
		// A halted producer closes done just before its goroutine returns,
		// so allow it a moment to exit; a leaked one stays blocked.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Errorf("%s: %d goroutines after the recovered panic, %d before", r.name, after, before)
		}
	}

	if _, ok := filteredStreams.Get(key); !ok {
		t.Fatal("the faulty RunSingle left no memo entry for its stream")
	}
	before := memo.Stats()
	got := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: panicScale, LLC: small})
	if u := memo.Stats(); u != before {
		t.Errorf("the LRU run after the panic changed the memo (%+v, before %+v); want it served from the entry", u, before)
	}
	want := perAccessRun(hmmer(t), policy.NewLRU(), panicScale, small)
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles || got.IPC != want.IPC ||
		got.LLC != want.LLC || got.L1 != want.L1 || got.L2 != want.L2 {
		t.Errorf("LRU run from the memo: %+v\nper-access LRU run: %+v", got, want)
	}
}

// TestFilteredStreamsSmallerThanRaw: every workload's filtered stream
// costs the memo less than its raw stream (24 bytes per access) would.
func TestFilteredStreamsSmallerThanRaw(t *testing.T) {
	for _, w := range workloads.All() {
		n := w.Accesses(testScale)
		s := memoFiltered(w, testScale)
		if raw := n * int(unsafe.Sizeof(mem.Access{})); s.bytes() >= raw {
			t.Errorf("%s: filtered stream is %d bytes, raw %d (%.1f bytes per access)", w.Name, s.bytes(), raw, float64(s.bytes())/float64(n))
		}
		t.Logf("%s: %.1f bytes per access", w.Name, float64(s.bytes())/float64(n))
	}
}

// TestConcurrentRunsShareOneFill runs eight RunSingle calls on one
// memo-sized stream at once (run it under -race): they must admit one
// memo entry, the stream's private-level output, and agree exactly.
func TestConcurrentRunsShareOneFill(t *testing.T) {
	w := hmmer(t)
	n := 3*chunkSize + 5
	for { // a stream no earlier test or repeat left resident
		if _, ok := filteredStreams.Get(streamKey{w.Name, n}); !ok {
			break
		}
		n++
	}
	scale := (float64(n) + 0.5) / float64(w.Accesses(1))
	small := cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}
	before := memo.Stats()
	results := make([]SingleResult, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pol := dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
			results[i] = RunSingle(w, pol, SingleOptions{Scale: scale, LLC: small})
		}()
	}
	wg.Wait()
	after := memo.Stats()
	if a := after.Entries - before.Entries + int(after.Evictions-before.Evictions); a != 1 {
		t.Errorf("eight runs of one stream admitted %d memo entries, want 1", a)
	}
	if _, ok := filteredStreams.Get(streamKey{w.Name, n}); !ok {
		t.Error("the stream's filtered output is not resident")
	}
	for i, r := range results[1:] {
		r0 := results[0]
		if r.IPC != r0.IPC || r.Cycles != r0.Cycles || r.Instructions != r0.Instructions ||
			r.LLC != r0.LLC || r.L1 != r0.L1 || r.L2 != r0.L2 || *r.Accuracy != *r0.Accuracy {
			t.Errorf("run %d differs from run 0:\n%+v\n%+v", i+1, r, r0)
		}
	}
}
