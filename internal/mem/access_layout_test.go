package mem

import (
	"testing"
	"unsafe"
)

// TestAccessLayout pins the Access struct's size and hot-field
// placement. The drive loops move accesses in blocks ([]Access), so
// every byte here multiplies across every generation buffer, filter
// scratch array, and materialized sampling window in the simulator. A
// new field that pushes the struct past 24 bytes (or padding sneaking
// in between the flag bytes) should be a deliberate decision, not an
// accident this test lets through.
func TestAccessLayout(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 24 {
		t.Errorf("Access is %d bytes, want 24 (8 PC + 8 Addr + 4 Gap + 3 flag bytes + 1 spare)", got)
	}
	// Hot fields first: every level reads PC/Addr/Gap on every access;
	// the flag bytes are colder and must trail so the first 20 bytes of
	// a block-array element are one dense prefix.
	if off := unsafe.Offsetof(Access{}.PC); off != 0 {
		t.Errorf("Access.PC at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(Access{}.Addr); off != 8 {
		t.Errorf("Access.Addr at offset %d, want 8", off)
	}
	if off := unsafe.Offsetof(Access{}.Gap); off != 16 {
		t.Errorf("Access.Gap at offset %d, want 16", off)
	}
	if off := unsafe.Offsetof(Access{}.Write); off != 20 {
		t.Errorf("Access.Write at offset %d, want 20 (first flag byte)", off)
	}
	if off := unsafe.Offsetof(Access{}.Thread); off != 22 {
		t.Errorf("Access.Thread at offset %d, want 22 (last flag byte)", off)
	}
}
