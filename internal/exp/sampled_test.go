package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sdbp/internal/sampling"
)

const sampledTestSpec = "policy=lru;workloads=456.hmmer;scale=0.02;sampled=true;sample_interval=5000;sample_clusters=4"

func TestSampledSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Policy: "lru", Workloads: []string{"456.hmmer"}, Sampled: true},
		{Policy: "Sampler", Workloads: []string{"subset"}, Scale: 0.5,
			Sampled: true, SampleInterval: 50_000, SampleClusters: 6, SampleWarmup: 0.5},
		{Policy: "lru", Workloads: []string{"429.mcf"}, Sampled: true, SampleWarmup: -1},
	} {
		text := s.String()
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("round trip changed spec: %q -> %+v", text, back)
		}
	}
}

func TestSampledSpecRoundTripSlices(t *testing.T) {
	s := Spec{Policy: "lru", Workloads: []string{"456.hmmer", "429.mcf"},
		Sampled: true, SampleInterval: 9999}
	back, err := ParseSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(back.Workloads, ",") != strings.Join(s.Workloads, ",") ||
		back.Sampled != s.Sampled || back.SampleInterval != s.SampleInterval {
		t.Fatalf("round trip changed spec: %+v -> %+v", s, back)
	}
}

func TestSampledResolveValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string // substring of the error
	}{
		{Spec{Policy: "lru", Mixes: []string{"mix1"}, Sampled: true}, "mixes"},
		{Spec{Policy: "lru", Workloads: []string{"456.hmmer"}, SampleInterval: 100}, "sampled=true"},
		{Spec{Policy: "lru", Workloads: []string{"456.hmmer"}, SampleClusters: 2}, "sampled=true"},
		{Spec{Policy: "lru", Workloads: []string{"456.hmmer"}, Sampled: true, SampleClusters: -3}, "sample_clusters"},
	}
	for _, c := range cases {
		_, err := c.spec.Resolve()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%+v) error = %v, want mention of %q", c.spec, err, c.want)
		}
	}
}

func TestSampledResolveDefaults(t *testing.T) {
	r, err := Spec{Policy: "lru", Workloads: []string{"456.hmmer"}, Sampled: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sampled || r.SampleInterval != DefaultSampleInterval {
		t.Fatalf("resolved sampled defaults: sampled=%v interval=%d", r.Sampled, r.SampleInterval)
	}
	// The canonical form makes every sampling default explicit, so any
	// spelling of the same sampled experiment shares one address.
	canon := r.String()
	for _, want := range []string{"sampled=true", "sample_interval=50000", "sample_clusters=8", "sample_warmup=4"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical %q missing %q", canon, want)
		}
	}
	// And the canonical form re-resolves to itself (fixed point).
	spec2, err := ParseSpec(canon)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := spec2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != canon {
		t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, r2.String())
	}
}

func TestRunBenchSampledAmortizesPilot(t *testing.T) {
	spec, err := ParseSpec(sampledTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec.Policy = "Sampler"
	smp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	w := lru.Workloads[0]
	resLRU, plan, err := lru.RunBenchSampled(w)
	if err != nil {
		t.Fatalf("RunBenchSampled(lru): %v", err)
	}
	resSmp, planSmp, err := smp.RunBenchSampled(w)
	if err != nil {
		t.Fatalf("RunBenchSampled(Sampler): %v", err)
	}
	if planSmp != plan {
		t.Fatal("two policies got distinct plans, want the one cached pilot")
	}
	if plan == nil || len(plan.Picks) == 0 {
		t.Fatal("no plan returned")
	}
	if resLRU.Estimate.IPC <= 0 || resSmp.Estimate.IPC <= 0 {
		t.Fatalf("degenerate estimates: %v / %v", resLRU.Estimate.IPC, resSmp.Estimate.IPC)
	}
	// Different policies measured over the same windows: the dead-block
	// policy must report predictor activity, the baseline none.
	var smpPreds uint64
	for _, iv := range resSmp.Measured {
		smpPreds += iv.DPredictions
	}
	if smpPreds == 0 {
		t.Error("Sampler policy measured no predictions in its windows")
	}
	for _, iv := range resLRU.Measured {
		if iv.DPredictions != 0 {
			t.Error("LRU measured nonzero predictions")
			break
		}
	}
}

// TestSampledSpellingsShareOnePilot: a spec that leaves the sampling
// knobs to their defaults and one that writes the defaults out resolve
// to one effective configuration, so the second finds the first's
// pilot resident instead of piloting the same plan again.
func TestSampledSpellingsShareOnePilot(t *testing.T) {
	const implicit = "policy=lru;workloads=456.hmmer;scale=0.02;sampled=true;sample_interval=5000"
	var plans []*sampling.Plan
	var canons []string
	for _, text := range []string{implicit, implicit + ";sample_clusters=8;sample_warmup=4"} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		_, plan, err := r.RunBenchSampled(r.Workloads[0])
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		plans = append(plans, plan)
		canons = append(canons, r.String())
	}
	if canons[0] != canons[1] {
		t.Errorf("canonical forms differ:\n%s\n%s", canons[0], canons[1])
	}
	if plans[0] != plans[1] {
		t.Error("implicit and explicit sampling defaults got distinct pilots, want one")
	}
}

func TestRunBenchSampledRequiresSampledSpec(t *testing.T) {
	r, err := (Spec{Policy: "lru", Workloads: []string{"456.hmmer"}, Scale: 0.02}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunBenchSampled(r.Workloads[0]); err == nil {
		t.Fatal("RunBenchSampled on an unsampled spec succeeded, want error")
	}
}

func TestRunBenchSampledEstimateWithinBounds(t *testing.T) {
	spec, err := ParseSpec(sampledTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	w := r.Workloads[0]
	res, _, err := r.RunBenchSampled(w)
	if err != nil {
		t.Fatal(err)
	}
	full := r.RunBench(w)
	trueMiss := float64(full.LLC.Misses) / float64(full.LLC.Accesses)
	if diff := math.Abs(res.Estimate.MissRate - trueMiss); diff > res.Estimate.MissRateHalf {
		t.Errorf("MissRate %v ± %v misses full-run %v",
			res.Estimate.MissRate, res.Estimate.MissRateHalf, trueMiss)
	}
	if math.Abs(full.IPC-res.Estimate.IPC) > res.Estimate.IPCHalf {
		t.Errorf("IPC %v ± %v misses full-run %v",
			res.Estimate.IPC, res.Estimate.IPCHalf, full.IPC)
	}
}
