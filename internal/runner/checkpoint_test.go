package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		MPKI float64
		IPC  float64
	}
	if err := ck.Record("a|b", result{MPKI: 1.5, IPC: 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", ck2.Len())
	}
	var r result
	if !ck2.Lookup("a|b", &r) || r.MPKI != 1.5 || r.IPC != 0.75 {
		t.Fatalf("lookup = %+v", r)
	}
	if ck2.Lookup("a|c", &r) {
		t.Error("lookup hit a missing key")
	}
}

func TestCheckpointFreshRunTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, _ := OpenCheckpoint(path, false)
	ck.Record("old", 1)
	ck.Close()

	ck2, err := OpenCheckpoint(path, false) // no resume: start fresh
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	var v int
	if ck2.Lookup("old", &v) {
		t.Error("fresh run saw a stale entry")
	}
}

func TestCheckpointToleratesTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, _ := OpenCheckpoint(path, false)
	ck.Record("good", 42)
	ck.Close()
	// Simulate a crash mid-write: a torn, incomplete final line.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"key":"torn","val`)
	f.Close()

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	var v int
	if !ck2.Lookup("good", &v) || v != 42 {
		t.Error("intact prefix lost")
	}
	if ck2.Lookup("torn", &v) {
		t.Error("torn entry restored")
	}
}

func TestNilCheckpointIsNoOp(t *testing.T) {
	var ck *Checkpoint
	var v int
	if ck.Lookup("k", &v) {
		t.Error("nil checkpoint hit")
	}
	if err := ck.Record("k", 1); err != nil {
		t.Error(err)
	}
	if err := ck.Close(); err != nil {
		t.Error(err)
	}
	if ck.Len() != 0 {
		t.Error("nil checkpoint non-empty")
	}
}

func TestRunResumeSkipsCheckpointedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first := Run(context.Background(), intJobs(8), Options{Workers: 2, Checkpoint: ck})
	if len(first.Values) != 8 {
		t.Fatalf("first run completed %d jobs", len(first.Values))
	}
	ck.Close()

	// Second run: every job body is a tripwire. All results must come
	// from the checkpoint.
	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func(context.Context) (int, error) { panic("job re-ran despite checkpoint") },
		}
	}
	var fromCkpt int
	set := Run(context.Background(), jobs, Options{
		Workers:    2,
		Checkpoint: ck2,
		Progress: func(ev Event) {
			if ev.FromCheckpoint {
				fromCkpt++
			}
		},
	})
	if len(set.Errors) != 0 {
		t.Fatalf("resume re-ran jobs: %v", set.Failed())
	}
	if fromCkpt != 8 {
		t.Errorf("checkpoint restores = %d, want 8", fromCkpt)
	}
	for i := 0; i < 8; i++ {
		if v, ok := set.Value(fmt.Sprintf("job-%02d", i)); !ok || v != i*i {
			t.Errorf("job-%02d = %d, %t", i, v, ok)
		}
	}
}

// TestCheckpointTornTailTruncatedAndWarned pins the hardened resume
// path: a crash mid-Record leaves a torn trailing line; resume must
// keep the intact prefix, warn through Warnf, and physically truncate
// the tail — otherwise the next Record would append onto the torn
// fragment and corrupt the journal one restart later.
func TestCheckpointTornTailTruncatedAndWarned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, _ := OpenCheckpoint(path, false)
	ck.Record("a", 1)
	ck.Record("b", 2)
	ck.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"key":"c","value":`) // torn write, no newline
	f.Close()

	var warned int
	oldWarnf := Warnf
	Warnf = func(format string, args ...any) { warned++ }
	defer func() { Warnf = oldWarnf }()

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", ck2.Len())
	}
	if warned == 0 {
		t.Error("torn tail skipped silently, want a Warnf notice")
	}
	// The journal must be usable after the repair: record a new entry
	// and resume again — all three entries load, so the torn fragment
	// did not swallow the new line.
	if err := ck2.Record("d", 4); err != nil {
		t.Fatal(err)
	}
	ck2.Close()

	ck3, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if ck3.Len() != 3 {
		t.Fatalf("after repair+record, loaded %d entries, want 3 (a, b, d)", ck3.Len())
	}
	var v int
	for key, want := range map[string]int{"a": 1, "b": 2, "d": 4} {
		if !ck3.Lookup(key, &v) || v != want {
			t.Errorf("lookup %s = %d, %t; want %d", key, v, ck3.Lookup(key, &v), want)
		}
	}
	if ck3.Lookup("c", &v) {
		t.Error("torn entry resurrected")
	}
}

// TestCheckpointCorruptMiddleLineEndsPrefix: a corrupt line mid-file
// ends the trusted prefix — later entries are dropped (and truncated
// away) rather than failing the whole resume.
func TestCheckpointCorruptMiddleLineEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	content := `{"key":"a","value":1}` + "\n" +
		`{"key":"b","value":` + "\n" + // corrupt but newline-terminated
		`{"key":"c","value":3}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	oldWarnf := Warnf
	Warnf = func(format string, args ...any) {}
	defer func() { Warnf = oldWarnf }()

	ck, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var v int
	if !ck.Lookup("a", &v) || v != 1 {
		t.Error("intact prefix lost")
	}
	if ck.Lookup("b", &v) || ck.Lookup("c", &v) {
		t.Error("entries past the corrupt line must not load")
	}
	if ck.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", ck.Len())
	}
}
