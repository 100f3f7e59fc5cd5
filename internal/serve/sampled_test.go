package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

const sampledSpecJSON = `{"policy":"lru","workloads":["456.hmmer"],"scale":0.02,` +
	`"sampled":true,"sample_interval":5000,"sample_clusters":4}`

func resolveSampled(t *testing.T) *exp.Resolved {
	t.Helper()
	var spec exp.Spec
	if err := json.Unmarshal([]byte(sampledSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExecuteSpecSampled: a sampled spec produces a manifest of
// estimates with plans and error bounds instead of exact bench rows,
// under a distinct content address, byte-identical across executions.
func TestExecuteSpecSampled(t *testing.T) {
	r := resolveSampled(t)

	reg := obs.NewRegistry()
	res, err := serve.ExecuteSpec(context.Background(), r, reg, nil)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if len(res.Benches) != 0 || len(res.Mixes) != 0 {
		t.Fatalf("sampled manifest carries exact rows: %d benches, %d mixes", len(res.Benches), len(res.Mixes))
	}
	if len(res.Sampled) != 1 {
		t.Fatalf("got %d sampled rows, want 1", len(res.Sampled))
	}
	row := res.Sampled[0]
	if row.Name != "456.hmmer" {
		t.Errorf("row name %q", row.Name)
	}
	if row.Estimate.IPC <= 0 || row.Estimate.IPCHalf <= 0 || row.Estimate.MissRateHalf <= 0 {
		t.Errorf("estimate missing bounds: %+v", row.Estimate)
	}
	if len(row.Plan.Picks) == 0 || row.Plan.Interval != 5000 {
		t.Errorf("manifest plan incomplete: %+v", row.Plan)
	}
	if row.Estimate.SimFraction <= 0 || row.Estimate.SimFraction >= 1 {
		t.Errorf("SimFraction = %v, want in (0,1)", row.Estimate.SimFraction)
	}

	// The sampled spelling addresses differently from the exact one.
	var unsampled exp.Spec
	if err := json.Unmarshal([]byte(sampledSpecJSON), &unsampled); err != nil {
		t.Fatal(err)
	}
	unsampled.Sampled = false
	unsampled.SampleInterval = 0
	unsampled.SampleClusters = 0
	ru, err := unsampled.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if serve.Addr(ru.String()) == res.Addr {
		t.Error("sampled and exact specs share a content address")
	}

	// Byte-identical across executions (the cache/resume contract).
	again, err := serve.ExecuteSpec(context.Background(), r, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := again.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("sampled manifests differ across executions")
	}
}
