// Command experiments regenerates every table and figure in the
// paper's evaluation section and prints them in order. The output is
// the data recorded in EXPERIMENTS.md.
//
//	experiments                       # everything at the default scale
//	experiments -scale 0.5            # faster, shorter streams
//	experiments -only fig4,fig5       # a subset
//	experiments -timeout 10m          # bound each simulation job
//	experiments -checkpoint run.ckpt  # journal finished cells
//	experiments -resume -checkpoint run.ckpt  # skip finished cells
//	experiments -metrics run.json     # write the run manifest + metrics
//	experiments -pprof localhost:6060 # live net/http/pprof endpoint
//	experiments -interval 100000 -trace-out probe.jsonl
//	                                  # interval telemetry + per-PC tables
//	experiments -policy "dbrb(base=random,pred=counting)" -bench 456.hmmer
//	                                  # ad-hoc run of one registry expression
//	experiments -spec myexp.json      # declarative experiment from a spec file
//
// The harness is fault tolerant: a panicking, hung or failed
// simulation job is isolated and reported, its table cell prints as
// ERR, every other cell still renders, and the process exits non-zero
// iff any job failed. With -checkpoint, completed cells are journaled
// as they finish; re-running with -resume recomputes only the missing
// (failed or interrupted) cells.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/figures"
	"sdbp/internal/obs"
	"sdbp/internal/probe"
	"sdbp/internal/runner"
)

// sections is the canonical list of -only keys, in presentation order.
var sections = []string{
	"claim", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"table1", "table2", "table3", "table4",
	"extensions", "prefetch", "victim", "sweeps",
}

// parseOnly validates a -only list against the known section keys. An
// unknown key is an error naming the valid set, instead of the old
// behavior of silently running nothing.
func parseOnly(s string) (map[string]bool, error) {
	want := map[string]bool{}
	if s == "" {
		return want, nil
	}
	valid := map[string]bool{}
	for _, k := range sections {
		valid[k] = true
	}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !valid[k] {
			sorted := append([]string(nil), sections...)
			sort.Strings(sorted)
			return nil, fmt.Errorf("experiments: unknown section %q; valid sections: %s",
				k, strings.Join(sorted, ", "))
		}
		want[k] = true
	}
	return want, nil
}

// progressLogger returns an Env progress callback that logs job
// completions to stderr: failures immediately, successes throttled to
// one line per second, with a done/total count and ETA.
func progressLogger(stderr io.Writer) func(runner.Event) {
	var mu sync.Mutex
	var last time.Time
	return func(ev runner.Event) {
		mu.Lock()
		defer mu.Unlock()
		final := ev.Done == ev.Total
		if ev.Err == nil && !final && time.Since(last) < time.Second {
			return
		}
		last = time.Now()
		msg := fmt.Sprintf("progress: %d/%d %s", ev.Done, ev.Total, ev.Key)
		switch {
		case ev.Err != nil && ev.Err.TimedOut:
			msg += " TIMED OUT"
		case ev.Err != nil:
			msg += " FAILED: " + ev.Err.Err.Error()
		case ev.FromCheckpoint:
			msg += " (from checkpoint)"
		}
		if !final && ev.ETA > 0 {
			msg += fmt.Sprintf(" (ETA %s)", ev.ETA.Round(time.Second))
		}
		fmt.Fprintln(stderr, msg)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its streams and arguments made
// explicit, so tests (notably the golden-output harness) can drive it
// in-process and capture exactly the bytes a user would see.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "stream length multiplier")
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(sections, ","))
	timeout := fs.Duration("timeout", 0, "per-job timeout (0 = none)")
	checkpoint := fs.String("checkpoint", "", "journal completed cells to this file")
	resume := fs.Bool("resume", false, "skip cells already in the checkpoint (default file experiments.ckpt)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress logging")
	metrics := fs.String("metrics", "", "write the run manifest (config, counters, timing) to this JSON file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	snapshot := fs.Duration("snapshot", 30*time.Second, "interval between campaign progress snapshots on stderr (0 = off)")
	interval := fs.Uint64("interval", 0, "interval telemetry granularity in retired instructions (0 = off)")
	traceOut := fs.String("trace-out", "", "write interval telemetry JSONL here (and Chrome trace events next to it); requires -interval")
	topk := fs.Int("topk", 0, fmt.Sprintf("per-PC attribution rows exported per run (0 = %d)", probe.DefaultTopK))
	sampled := fs.Bool("sampled", false, "run the sampled-simulation validation: replay the committed interval plans and compare estimates (with error bounds) to the committed full-run goldens")
	specFile := fs.String("spec", "", "ad-hoc mode: run one declarative experiment from this JSON spec file")
	policy := fs.String("policy", "", "ad-hoc mode: run this policy preset or registry expression against LRU")
	bench := fs.String("bench", "", "with -policy: comma-separated benchmarks, 'subset' (the default), or 'all'")
	mix := fs.String("mix", "", "with -policy: comma-separated quad-core mix names or 'all'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		fmt.Fprintf(stderr, "experiments: -scale must be a finite number above 0, not %v\n", *scale)
		return 2
	}

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *sampled {
		// The committed plans pin their own scale and workload set; the
		// mode runs exactly one section.
		switch {
		case *only != "":
			fmt.Fprintln(stderr, "experiments: -sampled cannot be combined with -only")
			return 2
		case *specFile != "" || *policy != "":
			fmt.Fprintln(stderr, "experiments: -sampled cannot be combined with -spec/-policy")
			return 2
		case *interval > 0:
			fmt.Fprintln(stderr, "experiments: -sampled cannot be combined with -interval telemetry")
			return 2
		}
		want = map[string]bool{"sampled": true}
	}
	spec, err := adhocSpec(*specFile, *policy, *bench, *mix, *only, *interval, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var resolved *exp.Resolved
	if spec != nil {
		if resolved, err = spec.Resolve(); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		// Ad-hoc mode runs exactly one section.
		want = map[string]bool{"adhoc": true}
	}
	if *interval > 0 && *traceOut == "" {
		fmt.Fprintln(stderr, "experiments: -interval requires -trace-out FILE to receive the telemetry")
		return 2
	}
	if *traceOut != "" && *interval == 0 {
		fmt.Fprintln(stderr, "experiments: -trace-out requires -interval N to enable telemetry")
		return 2
	}

	// SIGINT and SIGTERM cancel the campaign cleanly (shared drain
	// helper with cmd/sdbpd): in-flight jobs finish or time out, queued
	// jobs drain, partial tables render, and with -checkpoint every
	// finished cell is already journaled for -resume — so containerized
	// runs stopped with SIGTERM checkpoint as cleanly as a ^C.
	ctx, stop := runner.SignalContext(context.Background())
	defer stop()

	started := time.Now()
	reg := obs.NewRegistry()
	env := figures.DefaultEnv()
	env.Ctx = ctx
	env.Timeout = *timeout
	env.Obs = reg
	if !*quiet {
		env.Progress = progressLogger(stderr)
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *snapshot > 0 && !*quiet {
		stop := startSnapshots(reg, *snapshot, stderr)
		defer stop()
	}
	if *resume && *checkpoint == "" {
		*checkpoint = "experiments.ckpt"
	}
	if *checkpoint != "" {
		ck, err := runner.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer ck.Close()
		env.Checkpoint = ck
		if *resume {
			fmt.Fprintf(stderr, "resume: %d checkpointed results loaded from %s\n", ck.Len(), *checkpoint)
		}
	}

	run := func(key string) bool { return len(want) == 0 || want[key] }
	var ranSections []string
	section := func(name string, f func()) {
		if !run(name) || ctx.Err() != nil {
			return
		}
		sp := reg.StartSpan("section:" + name)
		start := time.Now()
		f()
		sp.End()
		ranSections = append(ranSections, name)
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	specEcho := ""
	if resolved != nil {
		specEcho = resolved.String()
		section("adhoc", func() { fmt.Fprint(stdout, figures.RunAdhocEnv(env, resolved).Render()) })
	}

	var sampledVal *figures.SampledValidation
	sampledFailed := false
	if *sampled {
		section("sampled", func() {
			v, ok := runSampled(env, stdout, stderr)
			sampledVal, sampledFailed = v, !ok
		})
	}

	section("table1", func() { fmt.Fprint(stdout, figures.RenderTable1()) })
	section("table2", func() { fmt.Fprint(stdout, figures.RenderTable2()) })

	// Sections request their cells from the shared Env, which runs each
	// distinct cell once: the first section that needs one pays for it
	// (and its footer says so), and later sections read the memo.
	section("claim", func() { fmt.Fprint(stdout, figures.RunSingleCoreEnv(env, *scale).RenderClaim()) })
	section("fig1", func() { fmt.Fprint(stdout, figures.RunFig1Env(env, *scale).Render()) })
	section("fig4", func() {
		sc := figures.RunSingleCoreEnv(env, *scale)
		fmt.Fprint(stdout, sc.RenderFig4())
		labels, vals := sc.Fig4Summary()
		fmt.Fprint(stdout, figures.SummaryChart("\nFigure 4 summary: amean misses normalized to LRU ('|' = LRU)", labels, vals))
	})
	section("fig5", func() {
		sc := figures.RunSingleCoreEnv(env, *scale)
		fmt.Fprint(stdout, sc.RenderFig5())
		labels, vals := sc.Fig5Summary()
		fmt.Fprint(stdout, figures.SummaryChart("\nFigure 5 summary: gmean speedup over LRU ('|' = LRU)", labels, vals))
	})
	section("fig6", func() { fmt.Fprint(stdout, figures.RunAblationEnv(env, *scale).Render()) })
	section("fig7", func() { fmt.Fprint(stdout, figures.RunRandomBaselineEnv(env, *scale).RenderFig7()) })
	section("fig8", func() { fmt.Fprint(stdout, figures.RunRandomBaselineEnv(env, *scale).RenderFig8()) })
	section("fig9", func() { fmt.Fprint(stdout, figures.RunSingleCoreEnv(env, *scale).RenderFig9()) })

	section("fig10", func() {
		mc := figures.RunMulticoreFigureEnv(env, figures.MulticorePolicies(), *scale)
		fmt.Fprint(stdout, mc.Render("Figure 10(a): normalized weighted speedup, 8MB shared LLC, LRU default"))
		fmt.Fprintln(stdout)
		mcr := figures.RunMulticoreFigureEnv(env, figures.RandomPolicies(), *scale)
		fmt.Fprint(stdout, mcr.Render("Figure 10(b): normalized weighted speedup, 8MB shared LLC, random default"))
	})

	section("table3", func() { fmt.Fprint(stdout, figures.RunTable3Env(env, *scale).Render()) })
	section("table4", func() { fmt.Fprint(stdout, figures.RunTable4Env(env, *scale).Render()) })

	section("extensions", func() { fmt.Fprint(stdout, figures.RunExtensionsEnv(env, *scale).Render()) })
	section("prefetch", func() { fmt.Fprint(stdout, figures.RunPrefetchStudyEnv(env, *scale).Render()) })
	section("victim", func() { fmt.Fprint(stdout, figures.RunVictimStudyEnv(env, *scale).Render()) })
	section("sweeps", func() {
		sets := []int{8, 16, 32, 64, 128}
		fmt.Fprint(stdout, figures.RenderSweep(
			"Sampler set count sweep (paper SIII-A: 32 is the trade-off point)",
			"sampler sets", figures.SamplerSetsSweepEnv(env, *scale, sets), sets))
		fmt.Fprintln(stdout)
		thrs := []int{2, 4, 6, 8, 9}
		fmt.Fprint(stdout, figures.RenderSweep(
			"Confidence threshold sweep (paper SIII-E: 8 gives the best accuracy)",
			"threshold", figures.ThresholdSweepEnv(env, *scale, thrs), thrs))
	})

	var probeCfg *probe.Config
	probeFailed := false
	if *interval > 0 && ctx.Err() == nil {
		probeCfg = &probe.Config{Interval: *interval, TopK: *topk}
		sp := reg.StartSpan("section:probe")
		if err := runIntrospection(env, reg, *scale, *probeCfg, *traceOut, stderr, *quiet); err != nil {
			fmt.Fprintln(stderr, err)
			probeFailed = true
		}
		sp.End()
	}

	code := summarize(env, ctx, *checkpoint, stderr)
	if (probeFailed || sampledFailed) && code == 0 {
		code = 1
	}
	if *metrics != "" {
		// Written even after failures or an interrupt: a partial
		// manifest is still the run's provenance record.
		if err := writeManifest(*metrics, reg, fs, *scale, *only, specEcho, ranSections, started, probeCfg, sampledVal); err != nil {
			fmt.Fprintf(stderr, "experiments: writing manifest: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else if !*quiet {
			fmt.Fprintf(stderr, "metrics: manifest written to %s\n", *metrics)
		}
	}
	return code
}

// summarize prints the end-of-run failure report and picks the exit
// status: 0 only when every job completed and the run was not
// interrupted.
func summarize(env *figures.Env, ctx context.Context, checkpoint string, stderr io.Writer) int {
	failures := env.Failures()
	if len(failures) == 0 && ctx.Err() == nil {
		return 0
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "experiments: interrupted; partial tables rendered above")
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "\nexperiments: %d job(s) failed; their cells are marked ERR above\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(stderr, "  %s: %v (ran %s)\n", f.Key, f.Err, f.Duration.Round(time.Millisecond))
		}
	}
	switch {
	case checkpoint != "":
		fmt.Fprintf(stderr, "re-run with -resume -checkpoint %s to recompute only the missing cells\n", checkpoint)
	default:
		fmt.Fprintln(stderr, "run with -checkpoint FILE to make campaigns resumable with -resume")
	}
	return 1
}
