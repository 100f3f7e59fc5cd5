package sim

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"sdbp/internal/dbrb"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/probe"
	"sdbp/internal/sampling"
)

// testPlan builds a sampling plan for hmmer at the test scale via a
// full pilot run.
func testPlan(t *testing.T, interval uint64, cfg sampling.Config) sampling.Plan {
	t.Helper()
	plan, err := SelectPlan(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale}, interval, cfg)
	if err != nil {
		t.Fatalf("SelectPlan: %v", err)
	}
	return plan
}

func TestSampledRunBasics(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 5})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatalf("MaterializeSampled: %v", err)
	}
	full := RunSingle(hmmer(t), policy.NewLRU(), SingleOptions{Scale: testScale})
	if m.TotalInstructions != full.Instructions {
		t.Fatalf("materialized %d total instructions, full run retired %d",
			m.TotalInstructions, full.Instructions)
	}
	res, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale})
	if err != nil {
		t.Fatalf("RunSampledTrace: %v", err)
	}
	est := res.Estimate
	if est.SimFraction <= 0 || est.SimFraction >= 1 {
		t.Fatalf("SimFraction = %v, want in (0,1)", est.SimFraction)
	}
	if est.IPC <= 0 || est.MissRate <= 0 {
		t.Fatalf("degenerate estimate: IPC=%v MissRate=%v", est.IPC, est.MissRate)
	}
	// The estimate must land within its own reported bounds of the
	// full run — the honesty property the whole PR exists for.
	trueCPI := float64(full.Cycles) / float64(full.Instructions)
	trueMiss := float64(full.LLC.Misses) / float64(full.LLC.Accesses)
	if diff := math.Abs(est.CPI - trueCPI); diff > est.CPIHalf {
		t.Errorf("CPI %v ± %v misses true %v (diff %v)", est.CPI, est.CPIHalf, trueCPI, diff)
	}
	if diff := math.Abs(est.MissRate - trueMiss); diff > est.MissRateHalf {
		t.Errorf("MissRate %v ± %v misses true %v (diff %v)", est.MissRate, est.MissRateHalf, trueMiss, diff)
	}
}

// TestSampledMeasuredWindowsAlignWithPilot: each measured window must
// retire exactly the instructions its pilot interval covered — the
// boundary-alignment invariant materialization depends on.
func TestSampledMeasuredWindowsAlignWithPilot(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 4})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatalf("MaterializeSampled: %v", err)
	}
	res, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale})
	if err != nil {
		t.Fatalf("RunSampledTrace: %v", err)
	}
	for i, iv := range res.Measured {
		want := plan.Picks[i].End - plan.Picks[i].Start
		if iv.DInstructions != want {
			t.Errorf("window %d measured %d instructions, pilot interval covered %d",
				i, iv.DInstructions, want)
		}
	}
}

// TestSampledAllIntervalsReproducesFullRun is the metamorphic identity
// end to end: a plan measuring every interval with zero warm-up replays
// the entire stream in order, so the integer counters equal the full
// run's exactly and the estimate is the full-run value.
func TestSampledAllIntervalsReproducesFullRun(t *testing.T) {
	const interval = 5_000
	w := hmmer(t)
	pilot := RunSingle(w, policy.NewLRU(), SingleOptions{
		Scale: testScale, Probe: &probe.Config{Interval: interval},
	})
	plan, err := sampling.AllIntervals(pilot.Probe.Intervals, interval)
	if err != nil {
		t.Fatalf("AllIntervals: %v", err)
	}
	m, err := MaterializeSampled(w, &plan, testScale)
	if err != nil {
		t.Fatalf("MaterializeSampled: %v", err)
	}
	if got := m.SimInstructions; got != m.TotalInstructions {
		t.Fatalf("all-intervals plan materialized %d of %d instructions", got, m.TotalInstructions)
	}
	res, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale})
	if err != nil {
		t.Fatalf("RunSampledTrace: %v", err)
	}
	full := RunSingle(w, policy.NewLRU(), SingleOptions{Scale: testScale})
	var instr, cycles, accesses, misses uint64
	for _, iv := range res.Measured {
		instr += iv.DInstructions
		cycles += iv.DCycles
		accesses += iv.DAccesses
		misses += iv.DMisses
	}
	if instr != full.Instructions {
		t.Errorf("measured %d instructions, full run %d", instr, full.Instructions)
	}
	if cycles != full.Cycles {
		t.Errorf("measured %d cycles, full run %d", cycles, full.Cycles)
	}
	if accesses != full.LLC.Accesses || misses != full.LLC.Misses {
		t.Errorf("measured %d/%d LLC accesses/misses, full run %d/%d",
			accesses, misses, full.LLC.Accesses, full.LLC.Misses)
	}
	est := res.Estimate
	wantCPI := float64(full.Cycles) / float64(full.Instructions)
	if rel := math.Abs(est.CPI-wantCPI) / wantCPI; rel > 1e-9 {
		t.Errorf("all-intervals CPI %v, full-run %v (rel %v)", est.CPI, wantCPI, rel)
	}
	wantMiss := float64(full.LLC.Misses) / float64(full.LLC.Accesses)
	if rel := math.Abs(est.MissRate-wantMiss) / wantMiss; rel > 1e-9 {
		t.Errorf("all-intervals MissRate %v, full-run %v (rel %v)", est.MissRate, wantMiss, rel)
	}
	if est.SimFraction != 1 {
		t.Errorf("SimFraction = %v, want 1", est.SimFraction)
	}
}

// TestSampledDeterministic: materialization and replay are pure
// functions of the plan and workload — byte-identical across repeat
// runs and across GOMAXPROCS.
func TestSampledDeterministic(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 4})
	run := func() []byte {
		m, err := MaterializeSampled(hmmer(t), &plan, testScale)
		if err != nil {
			t.Fatalf("MaterializeSampled: %v", err)
		}
		res, err := RunSampledTrace(m,
			dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
			SingleOptions{Scale: testScale})
		if err != nil {
			t.Fatalf("RunSampledTrace: %v", err)
		}
		b, err := json.Marshal(struct {
			Est sampling.Estimate
			Ivs []probe.Interval
		}{res.Estimate, res.Measured})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run()
	prev := runtime.GOMAXPROCS(1)
	b := run()
	runtime.GOMAXPROCS(prev)
	if string(a) != string(b) {
		t.Fatalf("sampled run not deterministic:\n%s\n%s", a, b)
	}
}

// TestSampledWarmupLongerThanTrace: a warm-up reaching past the start
// of the stream clamps to instruction 0 instead of failing.
func TestSampledWarmupLongerThanTrace(t *testing.T) {
	w := hmmer(t)
	pilot := RunSingle(w, policy.NewLRU(), SingleOptions{
		Scale: testScale, Probe: &probe.Config{Interval: 5_000},
	})
	n := len(pilot.Probe.Intervals)
	if n == 0 {
		t.Fatal("pilot produced no intervals")
	}
	plan, err := sampling.Select(pilot.Probe.Intervals, 5_000, sampling.Config{Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stretch the warm-up far beyond the whole stream.
	plan.Warmup = pilot.Instructions * 3
	m, err := MaterializeSampled(w, &plan, testScale)
	if err != nil {
		t.Fatalf("MaterializeSampled: %v", err)
	}
	// With every warm window clamped to the stream start (and clipped at
	// the previous pick's End so nothing replays twice), the windows
	// jointly cover the whole stream in order: window i's warm must hold
	// exactly the full run's LLC-bound records in (prevEnd, Start] —
	// same records, same rewritten gaps.
	ref := RunSingle(w, policy.NewLRU(), SingleOptions{Scale: testScale, CaptureStream: true})
	for i := range m.Windows {
		var lo uint64
		if i > 0 {
			lo = plan.Picks[i-1].End
		}
		wantN, cum := 0, uint64(0)
		var wantInstr uint64
		for _, a := range ref.Stream {
			cum += uint64(a.Gap) + 1
			if cum > plan.Picks[i].Start {
				break
			}
			if cum > lo {
				wantN++
				wantInstr += uint64(a.Gap) + 1
			}
		}
		warmInstr := uint64(0)
		for _, a := range m.Windows[i].Warm {
			warmInstr += uint64(a.Gap) + 1
		}
		if len(m.Windows[i].Warm) != wantN || warmInstr != wantInstr {
			t.Errorf("window %d warm holds %d LLC accesses over %d instructions, want the full-run LLC stream in (%d, %d] (%d over %d)",
				i, len(m.Windows[i].Warm), warmInstr, lo, plan.Picks[i].Start, wantN, wantInstr)
		}
	}
	if _, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale}); err != nil {
		t.Fatalf("RunSampledTrace: %v", err)
	}
}

// TestSampledPicksBeyondStream: a plan built for a longer stream (e.g.
// a larger scale) yields empty measure windows past the end; the
// estimator drops them, and errors only when nothing is measurable.
func TestSampledPicksBeyondStream(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 3})
	// Shift every pick past the end of the stream.
	for i := range plan.Picks {
		plan.Picks[i].Start += 1 << 40
		plan.Picks[i].End += 1 << 40
	}
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatalf("MaterializeSampled: %v", err)
	}
	if _, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale}); err == nil {
		t.Fatal("RunSampledTrace with every pick beyond the stream succeeded, want error")
	}
}

// TestSampledZeroPickPlanRejected: a plan with no picks fails
// validation up front.
func TestSampledZeroPickPlanRejected(t *testing.T) {
	plan := sampling.Plan{Interval: 5_000}
	if _, err := MaterializeSampled(hmmer(t), &plan, testScale); err == nil {
		t.Fatal("MaterializeSampled with an empty plan succeeded, want error")
	}
}

// TestSampledRejectsFullRunOnlyOptions: stream capture, line
// efficiencies and a separate probe config are full-run features.
func TestSampledRejectsFullRunOnlyOptions(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 2})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]SingleOptions{
		"capture": {Scale: testScale, CaptureStream: true},
		"lineeff": {Scale: testScale, KeepLineEfficiencies: true},
		"probe":   {Scale: testScale, Probe: &probe.Config{Interval: 1000}},
	} {
		if _, err := RunSampledTrace(m, policy.NewLRU(), opts); err == nil {
			t.Errorf("%s: RunSampledTrace succeeded, want error", name)
		}
	}
}

// TestSampledSeriesExportable: the sampled telemetry series round-trips
// through the standard probe exporters, so -trace-out and cmd/report
// work on sampled runs.
func TestSampledSeriesExportable(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 3})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSampledTrace(m, policy.NewLRU(), SingleOptions{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil || len(res.Series.Intervals) != len(plan.Picks) {
		t.Fatalf("sampled series missing or wrong length")
	}
	b, err := probe.MarshalJSONL([]probe.Series{*res.Series})
	if err != nil {
		t.Fatalf("MarshalJSONL: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSONL export")
	}
}

// TestSampledCheaperThanFull: the sampled path must simulate a small
// fraction of the stream (wall-time enforcement for the pinned
// validation set lives in cmd/experiments; this pins the work ratio at
// the sim layer).
func TestSampledCheaperThanFull(t *testing.T) {
	plan := testPlan(t, 5_000, sampling.Config{Clusters: 4})
	m, err := MaterializeSampled(hmmer(t), &plan, testScale)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(m.SimInstructions) / float64(m.TotalInstructions)
	if frac > 0.5 {
		t.Fatalf("sampled plan simulates %.0f%% of the stream, want well under half", 100*frac)
	}
}
