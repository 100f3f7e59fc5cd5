// Command tracegen generates and inspects the suite's synthetic memory
// reference traces. It can print a human-readable head of a trace,
// summarize its statistical properties (footprint, code sites, gap
// distribution, write fraction), or export it as CSV for external
// tools.
//
//	tracegen -bench 456.hmmer -summary
//	tracegen -bench 429.mcf -head 20
//	tracegen -bench 462.libquantum -csv > libquantum.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"sdbp/internal/mem"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "456.hmmer", "benchmark to generate")
	scale := fs.Float64("scale", 0.05, "stream length multiplier")
	head := fs.Int("head", 0, "print the first N accesses")
	csv := fs.Bool("csv", false, "dump the whole trace as CSV (pc,addr,write,dep,gap)")
	summary := fs.Bool("summary", true, "print trace statistics")
	outFile := fs.String("out", "", "write the trace in sdbp binary format to this file")
	inFile := fs.String("in", "", "read a binary trace file instead of generating")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "tracegen: unexpected positional arguments:", fs.Args())
		return 2
	}

	var gen trace.BatchGenerator
	var name, class string
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		gen, name, class = r, *inFile, "trace file"
	} else {
		w, err := workloads.ByName(*bench)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		gen, name, class = w.Generator(*scale), w.Name, w.Class
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		n, err := trace.Write(f, gen)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		fmt.Fprintf(stderr, "tracegen: wrote %d accesses to %s\n", n, *outFile)
		gen.Reset()
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	if *csv {
		fmt.Fprintln(out, "pc,addr,write,dependent,gap")
		each(gen, func(a mem.Access) bool {
			fmt.Fprintf(out, "%#x,%#x,%t,%t,%d\n", a.PC, a.Addr, a.Write, a.DependentLoad, a.Gap)
			return true
		})
		return 0
	}

	if *head > 0 {
		fmt.Fprintf(out, "%-18s %-18s %-5s %-4s %s\n", "pc", "addr", "write", "dep", "gap")
		printed := 0
		each(gen, func(a mem.Access) bool {
			fmt.Fprintf(out, "%#-18x %#-18x %-5t %-4t %d\n", a.PC, a.Addr, a.Write, a.DependentLoad, a.Gap)
			printed++
			return printed < *head
		})
		gen.Reset()
	}

	if !*summary {
		return 0
	}
	var (
		accesses, writes, deps uint64
		instructions           uint64
		blocks                 = map[uint64]uint64{}
		pcs                    = map[uint64]uint64{}
	)
	each(gen, func(a mem.Access) bool {
		accesses++
		instructions += uint64(a.Gap) + 1
		if a.Write {
			writes++
		}
		if a.DependentLoad {
			deps++
		}
		blocks[mem.BlockNumber(a.Addr)]++
		pcs[a.PC]++
		return true
	})
	if accesses == 0 {
		fmt.Fprintln(out, "empty trace")
		return 0
	}
	var maxTouch uint64
	for _, n := range blocks {
		if n > maxTouch {
			maxTouch = n
		}
	}
	fmt.Fprintf(out, "benchmark:      %s (%s)\n", name, class)
	fmt.Fprintf(out, "accesses:       %d (%d instructions, %.1f%% memory)\n",
		accesses, instructions, float64(accesses)/float64(instructions)*100)
	fmt.Fprintf(out, "footprint:      %d blocks (%.2f MB)\n",
		len(blocks), float64(len(blocks))*mem.BlockSize/(1<<20))
	fmt.Fprintf(out, "code sites:     %d\n", len(pcs))
	fmt.Fprintf(out, "writes:         %.1f%%\n", float64(writes)/float64(accesses)*100)
	fmt.Fprintf(out, "dependent:      %.1f%%\n", float64(deps)/float64(accesses)*100)
	fmt.Fprintf(out, "touches/block:  mean %.2f, max %d\n",
		float64(accesses)/float64(len(blocks)), maxTouch)
	return 0
}

// each calls f on the generator's accesses in stream order until the
// stream ends or f returns false.
func each(gen trace.BatchGenerator, f func(mem.Access) bool) {
	var buf [256]mem.Access
	for k := gen.NextBatch(buf[:]); k > 0; k = gen.NextBatch(buf[:]) {
		for _, a := range buf[:k] {
			if !f(a) {
				return
			}
		}
	}
}
