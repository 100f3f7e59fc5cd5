package main

// Golden-output regression tests. One full run of the experiment suite
// at a small deterministic scale is split into its sections, and each
// section's bytes are compared against testdata/golden/<section>.txt.
// The goldens pin the observable behavior of the whole simulator
// (cache model, policies, predictors, timing model, renderers): any
// refactor or optimization that changes a single byte of any table or
// figure fails here.
//
// Regenerate after an intentional behavior change with
//
//	go test ./cmd/experiments -run TestGolden -update
//
// and review the diff like source code. See EXPERIMENTS.md for when a
// golden may legitimately change.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files from this run")

// goldenScale keeps the full suite to seconds while still driving every
// section through real simulations. Changing it changes every golden.
const goldenScale = "0.01"

// doneLine matches the per-section footer; its duration is the one
// nondeterministic part of the output.
var doneLine = regexp.MustCompile(`^\[([a-z0-9]+) done in [^\]]+\]$`)

// normalizeOutput strips wall-clock durations from section footers so
// the remaining bytes are a pure function of the simulated work.
func normalizeOutput(out string) string {
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		if m := doneLine.FindStringSubmatch(ln); m != nil {
			lines[i] = "[" + m[1] + " done]"
		}
	}
	return strings.Join(lines, "\n")
}

// splitSections cuts a normalized full-suite output into per-section
// chunks, keyed by section name. Each chunk ends with its "[name done]"
// footer and the blank separator line that follows it.
func splitSections(t *testing.T, out string) map[string]string {
	t.Helper()
	chunks := map[string]string{}
	var cur strings.Builder
	afterFooter := false
	for _, ln := range strings.SplitAfter(out, "\n") {
		if afterFooter {
			afterFooter = false
			if ln == "\n" {
				continue // the separator belongs to the finished chunk
			}
		}
		cur.WriteString(ln)
		trimmed := strings.TrimSuffix(ln, "\n")
		if strings.HasPrefix(trimmed, "[") && strings.HasSuffix(trimmed, " done]") {
			name := strings.TrimSuffix(strings.TrimPrefix(trimmed, "["), " done]")
			if _, dup := chunks[name]; dup {
				t.Fatalf("section %q rendered twice", name)
			}
			chunks[name] = cur.String() + "\n" // reattach the separator
			cur.Reset()
			afterFooter = true
		}
	}
	return chunks
}

func goldenPath(section string) string {
	return filepath.Join("testdata", "golden", section+".txt")
}

// runSuite drives the command in-process and returns its normalized
// stdout.
func runSuite(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-quiet"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("experiments %v exited %d\nstderr:\n%s", args, code, stderr.String())
	}
	return normalizeOutput(stdout.String())
}

// TestGoldenSections runs the whole suite once and byte-compares every
// section against its committed golden.
func TestGoldenSections(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden run takes seconds; run without -short (CI has a dedicated step)")
	}
	out := runSuite(t, "-scale", goldenScale)
	chunks := splitSections(t, out)

	for _, section := range sections {
		section := section
		t.Run(section, func(t *testing.T) {
			got, ok := chunks[section]
			if !ok {
				t.Fatalf("section %q missing from suite output", section)
			}
			path := goldenPath(section)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden for %q (run with -update to create): %v", section, err)
			}
			if got != string(want) {
				t.Errorf("section %q differs from %s\n%s", section, path, firstDiff(string(want), got))
			}
		})
	}

	// Nothing unaccounted for: every rendered section must be a known key.
	for name := range chunks {
		found := false
		for _, s := range sections {
			if s == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("suite rendered unknown section %q; add it to sections and its golden", name)
		}
	}
}

// TestGoldenOnlySubset pins that -only produces byte-for-byte the same
// section output as the full run (the golden), so subsetting cannot
// drift from the campaign. table3, table4 and fig10 read many cells
// that earlier sections of the full run already computed, served from
// the campaign's memo; under -only they compute every cell fresh, and
// both must match the same golden.
func TestGoldenOnlySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped with -short")
	}
	if *update {
		t.Skip("goldens are written by TestGoldenSections")
	}
	for _, section := range []string{"fig1", "table1", "victim", "table3", "table4", "fig10"} {
		out := runSuite(t, "-scale", goldenScale, "-only", section)
		want, err := os.ReadFile(goldenPath(section))
		if err != nil {
			t.Fatalf("missing golden (run TestGoldenSections -update first): %v", err)
		}
		if out != string(want) {
			t.Errorf("-only %s differs from full-run golden\n%s", section, firstDiff(string(want), out))
		}
	}
}

// firstDiff renders the first differing line of two texts, with enough
// context to act on without a diff tool.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("first difference at line %d:\n golden: %q\n got:    %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d lines, got %d lines", len(w), len(g))
}
