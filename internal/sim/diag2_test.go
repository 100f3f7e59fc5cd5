package sim

import (
	"fmt"
	"sort"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/workloads"
)

// TestDiagMissByPC attributes LLC misses to code sites under two
// policies (diagnostic; run with -run MissByPC -v).
func TestDiagMissByPC(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	w, err := workloads.ByName("437.leslie3d")
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		pol  func() cache.Policy
	}{
		{"LRU", func() cache.Policy { return policy.NewLRU() }},
		{"TDBP", func() cache.Policy { return dbrb.New(policy.NewLRU(), predictor.NewRefTrace()) }},
		{"Sampler", func() cache.Policy {
			return dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
		}},
	} {
		pol := mk.pol()
		llc := cache.New(hier.LLCConfig(1), pol)
		core := hier.NewCore(hier.DefaultConfig(), llc)
		timing := cpu.New(cpu.DefaultConfig())
		miss := map[uint64]int{}
		hit := map[uint64]int{}
		gen := w.Generator(0.5)
		var buf [256]mem.Access
		for k := gen.NextBatch(buf[:]); k > 0; k = gen.NextBatch(buf[:]) {
			for _, a := range buf[:k] {
				before := llc.Stats()
				level := core.Access(a)
				after := llc.Stats()
				if after.Accesses > before.Accesses {
					site := a.PC &^ 0xFF // bucket nearby burst sites
					if after.Misses > before.Misses {
						miss[site]++
					} else {
						hit[site]++
					}
				}
				timing.Record(a.Gap, level.Latency(), a.DependentLoad)
			}
		}
		type row struct {
			pc   uint64
			m, h int
		}
		var rows []row
		for pc, m := range miss {
			rows = append(rows, row{pc, m, hit[pc]})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].m > rows[j].m })
		t.Logf("=== %s: total misses %d", mk.name, llc.Stats().Misses)
		for i, r := range rows {
			if i >= 8 {
				break
			}
			t.Logf("  pc=%s miss=%d hit=%d", siteName(r.pc), r.m, r.h)
		}
	}
}

// siteName decodes the workload PC layout for readability.
func siteName(pc uint64) string {
	bench := (pc - 0x400000) >> 24
	slot := (pc >> 12) & 0xFFF
	off := pc & 0xFFF
	return fmt.Sprintf("bench%d.k%d+0x%x", bench, slot, off)
}
