// Command perfbench is the repository's benchmark. One process runs one
// of four seeded workloads — sc-sweep, quad-mix, sampled-zoo, svc-mixed —
// through the simulator's public layer calls for a fixed number of
// seconds, checks every operation's simulated statistics against the
// reference digests in testdata/digests.json, and prints one JSON result
// line. With --trace 1 it instead runs the traced reconstruction of the
// workload's drive loops and reports where host time went, layer by
// layer. README.md documents every metric, workload and seed.
//
//	perfbench --workload sc-sweep --seed 1 --seconds 15 --trace 0
//	perfbench compare before.jsonl after.jsonl
//	perfbench digests -write perfbench/testdata/digests.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// DefaultSeed draws the inputs the benchmark is documented and tuned on.
// HeldOutSeed draws a second set, kept for confirming a claimed change on
// inputs it was not developed against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// procStart is the process start as the benchmark sees it: main's package
// initialisation, after the runtime and the imported packages' init (the
// workload and policy registries) have run.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line, the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run hands back: its operation counts,
// metrics, and human-readable notes printed ahead of the result line.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation and says why on standard error.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", err)
}

// check records an operation and fails it when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	root     string // the repository root: the working directory, or a test's parent directory
}

// measure is the run's measured duration.
func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type workload struct {
	name   string
	run    func(config, refs) (*report, error)
	traced func(config, refs) (*report, error)
}

var workloadList = []workload{
	{"sc-sweep", runSCSweep, traceSCSweep},
	{"quad-mix", runQuadMix, traceQuadMix},
	{"sampled-zoo", runSampledZoo, traceSampledZoo},
	{"svc-mixed", runSvcMixed, traceSvcMixed},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "digests":
			return runDigests(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{root: "."}
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", DefaultSeed, "seed drawing the workload's inputs from its pools")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer reconstruction; 0 measures end to end")
	out := fs.String("out", "", "append the run's record (environment stamp and result) to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == cfg.workload {
			w = &workloadList[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if !(cfg.seconds > 0) || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runFn := w.run
	if *traced == 1 {
		runFn = w.traced
	}
	rep, err := runFn(cfg, refs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *traced == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep.set("peak_rss_mb", rss, "MB")
	}
	res := outcome{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", name)
			return 1
		}
	}
	st := newStamp(cfg, *traced == 1)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)
	if *out != "" {
		if err := appendRecord(*out, record{Stamp: st, Result: res}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
