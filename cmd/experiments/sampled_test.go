package main

// Sampled-simulation accuracy and cost regression tests. The committed
// plan set and full-run goldens under testdata/sampled/ pin the
// validated configuration; TestSampledValidation replays the plans and
// fails if any estimate misses its own reported error bound, or if a
// baseline-policy estimate drifts more than 5% from the full-run
// truth. Regenerate after an
// intentional selector or simulator change with
//
//	go test ./cmd/experiments -run TestSampledValidation -update-sampled
//
// which re-pilots, re-runs the full-run truth, and refuses to write a
// plan set whose estimates violate their own bounds.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdbp/internal/figures"
)

var updateSampled = flag.Bool("update-sampled", false, "rewrite testdata/sampled/{plans,golden}.json from fresh pilots and full runs")

// relErrBound is the accuracy the committed configuration must deliver
// on IPC and miss rate, estimate vs full run, for every cell of the
// baseline (recency) policies. Feedback-coupled policies — the pilot's
// dead-block predictor and SHiP's signature history table — are exempt
// from the 5% check: their residual state bias under approximate
// warming is workload-specific and can exceed it. They are still
// required to land within their reported pilot-calibrated bounds, so
// their error is measured and surfaced, never hidden.
const relErrBound = 0.05

func sampledDataPath(name string) string {
	return filepath.Join("testdata", "sampled", name)
}

func writeSampledJSON(t *testing.T, name string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if err := os.MkdirAll(filepath.Dir(sampledDataPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sampledDataPath(name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkSampled asserts the validated accuracy contract on a completed
// pass: every cell present and inside its own reported
// (pilot-calibrated) bound, and every baseline-policy cell within
// relErrBound of the full-run truth.
func checkSampled(t *testing.T, v *figures.SampledValidation, golden *figures.SampledGolden) {
	t.Helper()
	wantCells := len(v.Plans.Plans) * len(v.Policies)
	if len(v.Cells) != wantCells {
		t.Fatalf("validation completed %d cells, want %d", len(v.Cells), wantCells)
	}
	for _, c := range v.Check(golden) {
		if !c.WithinIPC {
			t.Errorf("%s/%s: IPC %.4f±%.4f misses full-run %.4f",
				c.Bench, c.Policy, c.Estimate.IPC, c.BoundIPC, c.Golden.IPC)
		}
		if !c.WithinMiss {
			t.Errorf("%s/%s: miss rate %.4f±%.4f misses full-run %.4f",
				c.Bench, c.Policy, c.Estimate.MissRate, c.BoundMiss, c.Golden.MissRate)
		}
		if figures.FeedbackCoupled(c.Policy, v.Plans.Pilot) {
			continue
		}
		if c.RelIPC > relErrBound {
			t.Errorf("%s/%s: IPC relative error %.2f%% exceeds %.0f%%",
				c.Bench, c.Policy, 100*c.RelIPC, 100*relErrBound)
		}
		if c.RelMiss > relErrBound {
			t.Errorf("%s/%s: miss-rate relative error %.2f%% exceeds %.0f%%",
				c.Bench, c.Policy, 100*c.RelMiss, 100*relErrBound)
		}
	}
}

// TestSampledValidation replays the committed plans and enforces the
// accuracy contract against the committed goldens. With
// -update-sampled it regenerates both files instead, verifying the
// contract before writing.
func TestSampledValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pinned validation set; skipped with -short (CI has a dedicated step)")
	}
	env := figures.DefaultEnv()
	if *updateSampled {
		plans := figures.BuildSampledPlansEnv(env,
			figures.SampledValidationBenches, figures.SampledValidationScale,
			figures.SampledValidationInterval, figures.SampledValidationClusters)
		if len(plans.Plans) != len(figures.SampledValidationBenches) {
			t.Fatalf("pilots selected %d plans for %d benches: %v",
				len(plans.Plans), len(figures.SampledValidationBenches), env.Failures())
		}
		golden := figures.RunSampledGoldenEnv(env,
			figures.SampledValidationBenches, figures.SampledValidationPolicies,
			figures.SampledValidationScale)
		v := figures.RunSampledValidationEnv(env, plans, figures.SampledValidationPolicies)
		checkSampled(t, v, golden)
		if t.Failed() {
			t.Fatal("refusing to write sampled testdata that violates the accuracy contract")
		}
		writeSampledJSON(t, "plans.json", plans)
		writeSampledJSON(t, "golden.json", golden)
		return
	}

	plans, golden, err := loadSampledData()
	if err != nil {
		t.Fatalf("%v (run with -update-sampled to create)", err)
	}
	if plans.Scale != figures.SampledValidationScale ||
		plans.Interval != figures.SampledValidationInterval ||
		plans.Clusters != figures.SampledValidationClusters {
		t.Fatalf("committed plans were built with config %g/%d/%d, pinned config is %g/%d/%d; regenerate with -update-sampled",
			plans.Scale, plans.Interval, plans.Clusters,
			figures.SampledValidationScale, figures.SampledValidationInterval, figures.SampledValidationClusters)
	}
	v := figures.RunSampledValidationEnv(env, plans, figures.SampledValidationPolicies)
	checkSampled(t, v, golden)
}

// TestSampledWallTime enforces the cost half of the contract: replaying
// the committed plans across the whole validation set must cost at
// most 25% of the full-run wall time for the same cells. Both passes
// run single-worker, each with its own in-job concurrency: a full run
// filters on a producer goroutine while its consumer drives the LLC,
// and a sampled job generates on a producer while its consumer
// captures windows, then replays its policies concurrently. The
// sampled pass gets a second attempt because the simulated work is
// deterministic and only scheduling noise can push a run over.
func TestSampledWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("times full runs; skipped with -short (CI has a dedicated step)")
	}
	plans, _, err := loadSampledData()
	if err != nil {
		t.Fatalf("%v (run TestSampledValidation -update-sampled first)", err)
	}

	fullStart := time.Now()
	figures.RunSampledGoldenEnv(&figures.Env{Workers: 1},
		plans.Benches(), figures.SampledValidationPolicies, plans.Scale)
	fullWall := time.Since(fullStart)

	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		v := figures.RunSampledValidationEnv(&figures.Env{Workers: 1}, plans, figures.SampledValidationPolicies)
		if len(v.Cells) != len(plans.Plans)*len(figures.SampledValidationPolicies) {
			t.Fatalf("validation pass incomplete: %d cells", len(v.Cells))
		}
		ratio = float64(v.Wall) / float64(fullWall)
		t.Logf("sampled %v vs full %v (%.1f%% of full-run wall, mean sim fraction %.1f%%)",
			v.Wall.Round(time.Millisecond), fullWall.Round(time.Millisecond),
			100*ratio, 100*v.SimFraction())
		if ratio <= 0.25 {
			break
		}
	}
	if ratio > 0.25 {
		t.Errorf("sampled pass took %.1f%% of full-run wall, want <= 25%%", 100*ratio)
	}
}

// TestSampledFlagConflicts pins the CLI contract: -sampled is its own
// mode and cannot combine with section selection, ad-hoc specs or
// interval telemetry.
func TestSampledFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-sampled", "-only", "fig1"},
		{"-sampled", "-policy", "lru"},
		{"-sampled", "-spec", "x.json"},
		{"-sampled", "-interval", "1000", "-trace-out", "x.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (usage error); stderr: %s", args, code, stderr.String())
		}
	}
}

// TestSampledCLI drives the real -sampled mode end to end: exit 0, the
// comparison table on stdout, and the selector configuration, chosen
// intervals with weights, and error bounds recorded in the -metrics
// run manifest.
func TestSampledCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the validation set; skipped with -short")
	}
	manifest := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sampled", "-quiet", "-metrics", manifest}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("experiments -sampled exited %d\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Sampled simulation: estimates vs committed full-run goldens",
		"cells within their reported error bounds",
		"[sampled done in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("validation table reports violations:\n%s", out)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"sampled_interval"`, `"sampled_clusters"`, `"sampled_pilot"`,
		`"sampled_plan_429.mcf"`, `\"weight\"`,
		`"sampled_bound_456.hmmer_LRU"`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("manifest missing %s", want)
		}
	}
}
