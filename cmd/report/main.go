// Command report renders interval-telemetry JSONL (written by
// experiments -interval N -trace-out FILE) into a self-contained HTML
// report: per-benchmark sparklines of LLC miss rate, IPC,
// dead-prediction rate and false-positive rate over the run, plus the
// per-PC death-attribution tables with reconciliation against the run
// aggregates.
//
//	report -in probe.jsonl -out report.html
//	report -in probe.jsonl -out - > report.html   # stdout
//	report -in probe.jsonl -topk 10               # tighter PC tables
//	report -spans trace.json -out waterfall.html  # job-trace waterfall
//
// -spans renders the other telemetry artifact: a job trace fetched
// with 'sdbpctl trace ADDR', as a per-stage waterfall of the sdbpd
// pipeline (decode → cache lookup → queue wait → run → store).
//
// The output embeds everything inline (CSS and SVG, no scripts, no
// external references) and is a pure function of the input bytes, so
// re-rendering the same JSONL is byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with streams and arguments explicit so
// tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "interval telemetry JSONL (from experiments -trace-out)")
	spans := fs.String("spans", "", "render a job-trace waterfall from this trace JSON (from 'sdbpctl trace')")
	out := fs.String("out", "report.html", `output HTML path ("-" = stdout)`)
	topk := fs.Int("topk", 0, "bound each per-PC table to this many named rows (0 = all rows in the file)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*in == "") == (*spans == "") {
		fmt.Fprintln(stderr, "report: exactly one of -in FILE (telemetry JSONL) or -spans FILE (trace JSON) is required")
		return 2
	}
	if *spans != "" {
		data, err := os.ReadFile(*spans)
		if err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return 1
		}
		html, err := renderWaterfall(data)
		if err != nil {
			fmt.Fprintf(stderr, "report: rendering %s: %v\n", *spans, err)
			return 1
		}
		return writeOut(html, *out, fmt.Sprintf("trace waterfall rendered to %s", *out), stdout, stderr)
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "report: %v\n", err)
		return 1
	}
	series, err := readSeries(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "report: reading %s: %v\n", *in, err)
		return 1
	}
	if len(series) == 0 {
		fmt.Fprintf(stderr, "report: %s holds no telemetry series\n", *in)
		return 1
	}

	html, err := renderHTML(series, *topk)
	if err != nil {
		fmt.Fprintf(stderr, "report: rendering: %v\n", err)
		return 1
	}

	return writeOut(html, *out, fmt.Sprintf("%d benchmark(s) rendered to %s", len(series), *out), stdout, stderr)
}

// writeOut delivers a rendered page to -out (or stdout for "-").
func writeOut(html []byte, out, note string, stdout, stderr io.Writer) int {
	if out == "-" {
		if _, err := stdout.Write(html); err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(out, html, 0o644); err != nil {
		fmt.Fprintf(stderr, "report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "report: %s\n", note)
	return 0
}
