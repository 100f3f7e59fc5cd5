package sim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
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

// panics reports whether run panicked, recovering the panic as the
// runner and sdbpd do for a failing job.
func panics(run func()) (did bool) {
	defer func() { did = recover() != nil }()
	run()
	return false
}

// TestPolicyPanicStopsProducers pins that a recovered policy panic
// leaves no producer goroutine behind in either drive loop that starts
// them: the goroutine count returns to its baseline.
func TestPolicyPanicStopsProducers(t *testing.T) {
	small := cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}
	runs := []struct {
		name string
		run  func()
	}{
		{"RunSingle", func() {
			RunSingle(hmmer(t), faultyPolicy{policy.NewLRU()}, SingleOptions{Scale: testScale, LLC: small})
		}},
		{"RunMulticore", func() {
			RunMulticore(workloads.Mixes()[0], faultyPolicy{policy.NewLRU()}, MulticoreOptions{Scale: testScale, LLC: small})
		}},
	}
	for _, r := range runs {
		before := runtime.NumGoroutine()
		if !panics(r.run) {
			t.Errorf("%s: the faulty policy did not panic", r.name)
			continue
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
}
