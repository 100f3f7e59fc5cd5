package figures

import (
	"fmt"
	"strings"

	"sdbp/internal/exp"
	"sdbp/internal/sim"
)

// Fig1 holds the cache-efficiency illustration: 456.hmmer on a 1MB
// 16-way LLC under LRU and under sampler-driven dead block replacement
// and bypass. The paper reports 22% vs 87% efficiency and renders
// per-line live-time ratios as greyscale. A failed variant renders its
// efficiency as ERR with an empty map.
type Fig1 struct {
	LRUEfficiency     float64
	SamplerEfficiency float64
	LRUMap            [][]float64
	SamplerMap        [][]float64
}

// RunFig1Env performs the Figure 1 measurement.
func RunFig1Env(e *Env, scale float64) *Fig1 {
	opts := sim.SingleOptions{Scale: scale, LLC: exp.MustGeometry("llc(mb=1)"), KeepLineEfficiencies: true}
	lru := singleCell("456.hmmer", LRUSpec(), 1, opts)
	smp := singleCell("456.hmmer", preset("Sampler"), 1, opts)
	set := runCells[sim.SingleResult](e, []cell{lru, smp})

	f := &Fig1{LRUEfficiency: errVal(), SamplerEfficiency: errVal()}
	if r, ok := set.Value(lru.key()); ok {
		f.LRUEfficiency, f.LRUMap = r.Efficiency, r.LineEfficiencies
	}
	if r, ok := set.Value(smp.key()); ok {
		f.SamplerEfficiency, f.SamplerMap = r.Efficiency, r.LineEfficiencies
	}
	return f
}

// Render prints the efficiencies and coarse ASCII greyscale maps
// (darker characters = longer dead).
func (f *Fig1) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: 456.hmmer cache efficiency, 1MB 16-way LLC\n")
	fmt.Fprintf(&sb, "  (a) LRU:                     %s%%  (paper: 22%%)\n", fmtVal("%.0f", f.LRUEfficiency*100))
	fmt.Fprintf(&sb, "  (b) sampler dead block R&B:  %s%%  (paper: 87%%)\n", fmtVal("%.0f", f.SamplerEfficiency*100))
	sb.WriteString("\n  (a) LRU\n")
	sb.WriteString(asciiMap(f.LRUMap))
	sb.WriteString("\n  (b) sampler DBRB\n")
	sb.WriteString(asciiMap(f.SamplerMap))
	return sb.String()
}

// asciiMap downsamples a sets×ways efficiency matrix to a character
// grid: ' ' fully live through '#' fully dead.
func asciiMap(m [][]float64) string {
	if len(m) == 0 {
		return ""
	}
	const rows = 16
	shades := []byte(" .:-=+*%#")
	ways := len(m[0])
	group := (len(m) + rows - 1) / rows
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		sb.WriteString("  ")
		for w := 0; w < ways; w++ {
			var sum float64
			var n int
			for s := r * group; s < (r+1)*group && s < len(m); s++ {
				sum += m[s][w]
				n++
			}
			eff := 0.0
			if n > 0 {
				eff = sum / float64(n)
			}
			idx := int((1 - eff) * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
