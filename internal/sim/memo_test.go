package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/memo"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// scaleFor returns the scale at which w's stream is n accesses long.
func scaleFor(w workloads.Workload, n int) float64 {
	return (float64(n) + 0.5) / float64(w.Accesses(1))
}

// TestFilterMemoMatchesGenerated pins Filter's memoized path to its
// generated path chunk for chunk: for one stream at chunk edges and at
// the memo's cap, both must hand over the same number of chunks, each
// of the same length and records, and report the same L1/L2 statistics.
func TestFilterMemoMatchesGenerated(t *testing.T) {
	w, err := workloads.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	c := sim.ChunkSize
	for _, n := range []int{c - 1, c, c + 1, sim.MemoMaxAccesses} {
		scale := scaleFor(w, n)
		if w.Accesses(scale) != n {
			t.Fatalf("scale %g gives %d accesses, want %d", scale, w.Accesses(scale), n)
		}
		var want [][]hier.Filtered
		wantL1, wantL2 := sim.FilterGenerated(w, scale, func(recs []hier.Filtered) {
			want = append(want, append([]hier.Filtered(nil), recs...))
		})
		got := 0
		l1, l2 := sim.Filter(w, scale, func(recs []hier.Filtered) {
			switch {
			case got >= len(want):
				t.Errorf("n=%d: memoized chunk %d is past the generated path's %d chunks", n, got, len(want))
			case len(recs) != len(want[got]):
				t.Errorf("n=%d: memoized chunk %d holds %d records, generated %d", n, got, len(recs), len(want[got]))
			case !reflect.DeepEqual(recs, want[got]):
				t.Errorf("n=%d: memoized chunk %d differs from the generated one", n, got)
			}
			got++
		})
		if got != len(want) {
			t.Errorf("n=%d: memoized path handed over %d chunks, generated %d", n, got, len(want))
		}
		if l1 != wantL1 || l2 != wantL2 {
			t.Errorf("n=%d: memoized L1 %+v L2 %+v, generated L1 %+v L2 %+v", n, l1, l2, wantL1, wantL2)
		}
		if l1.Accesses != uint64(n) {
			t.Errorf("n=%d: the private levels saw %d accesses", n, l1.Accesses)
		}
	}
}

// TestRunSingleOverTheCapMatchesPerAccessReference checks a stream one
// access over the memo's cap, which takes the generated path, bit for
// bit against the per-access reference.
func TestRunSingleOverTheCapMatchesPerAccessReference(t *testing.T) {
	w, err := workloads.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := exp.ResolvePolicy("Sampler")
	if err != nil {
		t.Fatal(err)
	}
	n := sim.MemoMaxAccesses + 1
	scale := scaleFor(w, n)
	want := refRun(w, pol.Make(1), scale, true, 0)
	if want.l1.Accesses != uint64(n) {
		t.Fatalf("reference stream is %d accesses long, want %d", want.l1.Accesses, n)
	}
	before := memo.Stats()
	got := sim.RunSingle(w, pol.Make(1), sim.SingleOptions{Scale: scale, LLC: refLLC, CaptureStream: true})
	checkAgainstRef(t, fmt.Sprintf("n=%d", n), got, want)
	if u := memo.Stats(); u != before {
		t.Errorf("a run over the cap changed the memo (%+v, before %+v)", u, before)
	}
}

// TestFilterScaleZeroIsScaleOne: scale 0 means 1 for Filter as for
// RunSingle, so the studies that call Filter directly (prefetch,
// victim) simulate the whole stream, not one access.
func TestFilterScaleZeroIsScaleOne(t *testing.T) {
	w, err := workloads.ByName("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	l1, _ := sim.Filter(w, 0, func(recs []hier.Filtered) { n += len(recs) })
	if want := w.Accesses(1); n != want || l1.Accesses != uint64(want) {
		t.Errorf("Filter at scale 0 handed over %d records (L1 saw %d), want scale 1's %d", n, l1.Accesses, want)
	}
}
