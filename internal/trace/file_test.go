package trace

import (
	"bytes"
	"errors"
	"testing"

	"sdbp/internal/mem"
)

func roundTrip(t *testing.T, g BatchGenerator) (*Replay, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := Write(&buf, g)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r, n
}

func TestTraceRoundTrip(t *testing.T) {
	k := NewMix(
		Weighted{&Stream{Region: Region{Base: 1 << 40, Blocks: 64}, Burst: 2, PCBase: 0x1000, GapMean: 3}, 2},
		Weighted{&PointerChase{Region: Region{Base: 2 << 40, Blocks: 32}, PCCount: 4, PCBase: 0x2000, GapMean: 1}, 1},
	)
	orig := NewProgram(k, 5000, 7)
	want := Collect(orig)
	orig.Reset()

	r, n := roundTrip(t, orig)
	if n != len(want) || r.Length() != len(want) {
		t.Fatalf("wrote %d, read %d, want %d", n, r.Length(), len(want))
	}
	got := Collect(r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestTraceRoundTripThreads(t *testing.T) {
	recs := []mem.Access{
		{PC: 1, Addr: 64, Thread: 3, Write: true, Gap: 9},
		{PC: 2, Addr: 0, Thread: 0, DependentLoad: true},
		{PC: 1 << 60, Addr: 1 << 62, Thread: 255},
	}
	r, _ := roundTrip(t, NewReplay(recs))
	got := Collect(r)
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReaderReset(t *testing.T) {
	r, _ := roundTrip(t, NewReplay([]mem.Access{{PC: 1}, {PC: 2}}))
	a := Collect(r)
	r.Reset()
	b := Collect(r)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] {
		t.Error("Reset did not replay the trace")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________"),
		append(append([]byte{}, traceMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for i, c := range cases {
		if _, err := NewReader(bytes.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, NewReplay([]mem.Access{{PC: 99, Addr: 640}, {PC: 98, Addr: 0}})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(full) - 1; cut > 8; cut-- {
		if _, err := NewReader(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTraceCompression(t *testing.T) {
	// Sequential streams must delta-compress to a few bytes per record.
	g := NewProgram(&Stream{Region: Region{Base: 1 << 44, Blocks: 4096}, PCBase: 0x400000}, 10000, 1)
	var buf bytes.Buffer
	n, err := Write(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(n)
	if perRecord > 6 {
		t.Errorf("%.1f bytes/record; delta encoding ineffective", perRecord)
	}
}
