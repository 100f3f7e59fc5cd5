package figures

import (
	"context"
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// cellKind is what a cell computes; it leads the cell's key.
type cellKind string

const (
	singleRun  cellKind = "single" // sim.RunSingle: a sim.SingleResult
	mixRun     cellKind = "mix"    // sim.RunMulticore: a sim.MulticoreResult
	optimalRun cellKind = "min"    // OptimalMPKI: a float64
)

// optimalWorkers caps concurrent optimal-MIN cells: each holds its
// benchmark's whole captured LLC stream.
const optimalWorkers = 4

// cell is one deterministic simulation, named by everything that
// determines its result and nothing else. Figures that need the same
// simulation build equal cells, so one Env runs it once per campaign:
// key is both the Env's memo key and the checkpoint journal key.
type cell struct {
	kind cellKind
	// name is the benchmark, or the mix for a quad-core run.
	name string
	// policy is the LLC policy; its canonical Expr identifies it and
	// Make(threads) builds it.
	policy  exp.Policy
	threads int
	// scale and llc are normalized the way sim normalizes them: scale
	// 0 is 1, and the zero geometry is the paper's default for the
	// run's core count.
	scale float64
	llc   cache.Config
	// lineMap keeps Figure 1's per-line efficiency map.
	lineMap bool
}

// singleCell is a single-core run of p, built for threads sharers.
func singleCell(bench string, p exp.Policy, threads int, opts sim.SingleOptions) cell {
	if opts.LLC.SizeBytes == 0 {
		opts.LLC = hier.LLCConfig(1)
	}
	return cell{kind: singleRun, name: bench, policy: p, threads: threads,
		scale: scaleOr1(opts.Scale), llc: opts.LLC, lineMap: opts.KeepLineEfficiencies}
}

// mixCell is a quad-core run of p over a mix sharing one LLC.
func mixCell(mix string, p exp.Policy, scale float64, llc cache.Config) cell {
	if llc.SizeBytes == 0 {
		llc = hier.LLCConfig(4)
	}
	return cell{kind: mixRun, name: mix, policy: p, threads: 4, scale: scaleOr1(scale), llc: llc}
}

// optimalCell is Belady MIN with bypass over the benchmark's LLC
// stream as captured under LRU at the default geometry.
func optimalCell(bench string, scale float64) cell {
	c := singleCell(bench, LRUSpec(), 1, sim.SingleOptions{Scale: scale})
	c.kind = optimalRun
	return c
}

// key renders the cell's identity.
func (c cell) key() string {
	return fmt.Sprintf("%s|%s|t=%d|s=%g|llc=%d.%d|lines=%t|%s", c.kind, c.name,
		c.threads, c.scale, c.llc.SizeBytes, c.llc.Ways, c.lineMap, c.policy.Expr)
}

// run simulates the cell.
func (c cell) run() (any, error) {
	if c.kind == mixRun {
		for _, m := range workloads.Mixes() {
			if m.Name == c.name {
				return sim.RunMulticore(m, c.policy.Make(c.threads), sim.MulticoreOptions{Scale: c.scale, LLC: c.llc})
			}
		}
		return nil, fmt.Errorf("figures: unknown mix %q", c.name)
	}
	w, err := workloads.ByName(c.name)
	if err != nil {
		return nil, err
	}
	if c.kind == optimalRun {
		return OptimalMPKI(w, c.scale), nil
	}
	return sim.RunSingle(w, c.policy.Make(c.threads), sim.SingleOptions{
		Scale: c.scale, LLC: c.llc, KeepLineEfficiencies: c.lineMap,
	}), nil
}

// runCells returns the result or failure of every cell, by cell key.
// Cells of one call share a kind, and T is that kind's result type.
// Each distinct cell runs at most once per Env: duplicates within
// cells and cells the Env already ran come from its memo and are not
// runner jobs. The memo keeps failures too, so a failed cell is
// reported once in Env.Failures and never retried by a later request;
// the checkpoint journal still holds successes only, so -resume
// recomputes it. Memoized results are shared, so callers treat them as
// read-only.
func runCells[T any](e *Env, cells []cell) *runner.Set[T] {
	set := &runner.Set[T]{Values: map[string]T{}, Errors: map[string]*runner.JobError{}}
	var jobs []runner.Job[T]
	queued := map[string]bool{}
	workers := 0
	for _, c := range cells {
		k := c.key()
		if queued[k] {
			continue
		}
		queued[k] = true
		if v, ok := e.recall(k); ok {
			if jerr, failed := v.(*runner.JobError); failed {
				set.Errors[k] = jerr
			} else {
				set.Values[k] = v.(T)
			}
			continue
		}
		if c.kind == optimalRun {
			workers = optimalWorkers
		}
		jobs = append(jobs, runner.Job[T]{Key: k, Run: func(context.Context) (T, error) {
			v, err := c.run()
			if err != nil {
				var zero T
				return zero, err
			}
			return v.(T), nil
		}})
	}
	if len(jobs) == 0 {
		return set
	}
	ran := runJobsLimited(e, jobs, workers)
	for k, v := range ran.Values {
		set.Values[k] = v
		e.remember(k, v)
	}
	for k, err := range ran.Errors {
		set.Errors[k] = err
		e.remember(k, err)
	}
	return set
}
