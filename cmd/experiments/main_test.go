package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseOnlyAcceptsKnownKeys(t *testing.T) {
	want, err := parseOnly("fig4, fig5 ,table3")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fig4", "fig5", "table3"} {
		if !want[k] {
			t.Errorf("%s not selected", k)
		}
	}
	if len(want) != 3 {
		t.Errorf("selected %d sections", len(want))
	}
}

func TestParseOnlyEmptyMeansEverything(t *testing.T) {
	want, err := parseOnly("")
	if err != nil || len(want) != 0 {
		t.Fatalf("want = %v, err = %v", want, err)
	}
}

func TestParseOnlyRejectsUnknownKey(t *testing.T) {
	for _, bad := range []string{"fig3", "fig 4", "fig4,nope", "Fig4"} {
		_, err := parseOnly(bad)
		if err == nil {
			t.Errorf("%q accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "valid sections") {
			t.Errorf("%q error does not list the valid set: %v", bad, err)
		}
	}
}

func TestParseOnlyCoversEverySection(t *testing.T) {
	want, err := parseOnly(strings.Join(sections, ","))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(sections) {
		t.Errorf("selected %d of %d sections", len(want), len(sections))
	}
}

// TestScaleMustBeFinitePositive: a -scale that is zero, negative or not
// finite is a usage error naming the flag, and no section runs.
func TestScaleMustBeFinitePositive(t *testing.T) {
	for _, bad := range []string{"0", "-1", "NaN", "+Inf", "-Inf"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", bad, "-only", "table1", "-quiet"}, &stdout, &stderr); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", bad, code)
		}
		if !strings.Contains(stderr.String(), "-scale") {
			t.Errorf("-scale %s: stderr %q does not name the flag", bad, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-scale %s: ran anyway:\n%s", bad, stdout.String())
		}
	}
}
