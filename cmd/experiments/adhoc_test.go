package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdbp/internal/dbrb"
	"sdbp/internal/obs"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// TestAdhocReproducesFigureCell is the acceptance check for the
// registry refactor: an ad-hoc -policy run of the paper's sampler
// expression must print exactly the Figure 4 (norm miss) and Figure 5
// (speedup) cells that hand-built simulations produce. Scale 0.05 is
// the smallest stream where the cells are away from 1.000 on some
// metric while staying fast.
func TestAdhocReproducesFigureCell(t *testing.T) {
	const bench, scale = "456.hmmer", 0.05
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	lru := sim.RunSingle(w, policy.NewLRU(), sim.SingleOptions{Scale: scale})
	smp := sim.RunSingle(w,
		dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
		sim.SingleOptions{Scale: scale})

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-policy", "dbrb(base=lru,pred=sampler)",
		"-bench", bench, "-scale", fmt.Sprintf("%g", scale), "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()

	var row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), bench) {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatalf("no row for %s in output:\n%s", bench, out)
	}
	for _, cell := range []string{
		fmt.Sprintf("%.3f", lru.MPKI),
		fmt.Sprintf("%.3f", smp.MPKI),
		fmt.Sprintf("%.3f", smp.IPC),
		fmt.Sprintf("%.3f", smp.MPKI/lru.MPKI), // the Figure 4 cell
		fmt.Sprintf("%.3f", smp.IPC/lru.IPC),   // the Figure 5 cell
	} {
		if !strings.Contains(row, cell) {
			t.Errorf("row %q missing cell %s", row, cell)
		}
	}
	wantSpec := "policy=dbrb(base=lru,pred=sampler);workloads=456.hmmer;cores=1;llc=llc(mb=2,ways=16);scale=0.05"
	if !strings.Contains(out, "spec: "+wantSpec) {
		t.Errorf("output missing canonical spec echo %q:\n%s", wantSpec, out)
	}
}

// TestAdhocSpecFileAndManifestEcho runs a JSON spec file and checks
// the resolved spec lands in the manifest's deterministic config.
func TestAdhocSpecFileAndManifestEcho(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	manifestPath := filepath.Join(dir, "manifest.json")
	spec := `{"policy": "Random CDBP", "workloads": ["470.lbm"], "scale": 0.02}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", specPath, "-quiet", "-metrics", manifestPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	wantSpec := "policy=dbrb(base=random,pred=counting);workloads=470.lbm;cores=1;llc=llc(mb=2,ways=16);scale=0.02"
	if !strings.Contains(stdout.String(), "spec: "+wantSpec) {
		t.Errorf("output missing spec echo:\n%s", stdout.String())
	}

	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Sim.Config["spec"]; got != wantSpec {
		t.Errorf("manifest spec = %q, want %q", got, wantSpec)
	}
	if got := m.Sim.Config["sections"]; got != "adhoc" {
		t.Errorf("manifest sections = %q, want adhoc", got)
	}
}

// TestAdhocSpecFileScalePrecedence: a file with no scale field takes
// the -scale flag.
func TestAdhocSpecFileScalePrecedence(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"policy": "lru", "workloads": ["481.wrf"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-scale", "0.01", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scale=0.01") {
		t.Errorf("flag scale not applied:\n%s", stdout.String())
	}
}

func TestAdhocFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-spec", "x.json", "-policy", "lru"},                            // mutually exclusive
		{"-policy", "lru", "-only", "fig4"},                              // exclusive with -only
		{"-bench", "456.hmmer"},                                          // -bench without -policy
		{"-mix", "mix1"},                                                 // -mix without -policy
		{"-spec", "x.json", "-bench", "456.hmmer"},                       // -bench with -spec
		{"-policy", "lru", "-interval", "1000", "-trace-out", "x.jsonl"}, // no telemetry in ad-hoc mode
		{"-policy", "nosuchpolicy"},                                      // resolver error
		{"-policy", "lru", "-bench", "999.nope"},                         // unknown benchmark
		{"-spec", "/nonexistent/spec.json"},                              // unreadable file
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-quiet"), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestAdhocSpecFileRejectsUnknownFields pins DisallowUnknownFields.
func TestAdhocSpecFileRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"policy": "lru", "workload": ["456.hmmer"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-quiet"}, &stdout, &stderr); code != 2 {
		t.Errorf("misspelled field accepted (exit %d)", code)
	}
}
