package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
)

// The correctness gate: every operation's simulated statistics hash to a
// digest that must equal the reference committed in
// testdata/digests.json for that operation. The references cover every
// entry of every pool, so any seed's draw is checked. Regenerate them —
// only when a change is meant to alter simulated results — with
//
//	perfbench digests -write perfbench/testdata/digests.json

//go:embed testdata/digests.json
var refsJSON []byte

// refs maps workload name → operation key → reference digest.
type refs map[string]map[string]string

func loadRefs() (refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return r, nil
}

// verify compares an operation's statistics with its reference digest.
func (r refs) verify(workload, key string, s simStats) error {
	got := s.digest()
	want, ok := r[workload][key]
	if !ok {
		return fmt.Errorf("%s %s: no reference digest (regenerate with perfbench digests)", workload, key)
	}
	if got != want {
		return fmt.Errorf("%s %s: statistics digest %s differs from reference %s", workload, key, got, want)
	}
	return nil
}

// simStats is the part of an operation's outcome the digest covers: IPC,
// cycles, instructions, the L1/L2/LLC cache.Stats, and for sampled runs
// the full-run estimate. Fields a result does not carry stay zero.
type simStats struct {
	IPC          []float64          `json:"ipc"`
	Cycles       uint64             `json:"cycles"`
	Instructions []uint64           `json:"instructions"`
	L1           cache.Stats        `json:"l1"`
	L2           cache.Stats        `json:"l2"`
	LLC          cache.Stats        `json:"llc"`
	Estimate     *sampling.Estimate `json:"estimate,omitempty"`
}

// digest hashes the statistics' JSON form, which spells every float
// exactly. A value JSON cannot carry (NaN) yields a digest no reference
// matches.
func (s simStats) digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func singleStats(r sim.SingleResult) simStats {
	return simStats{
		IPC:          []float64{r.IPC},
		Cycles:       r.Cycles,
		Instructions: []uint64{r.Instructions},
		L1:           r.L1,
		L2:           r.L2,
		LLC:          r.LLC,
	}
}

func multiStats(r sim.MulticoreResult) simStats {
	return simStats{
		IPC:          r.IPC[:],
		Cycles:       r.Cycles,
		Instructions: r.Instructions[:],
		L1:           r.L1,
		L2:           r.L2,
		LLC:          r.LLC,
	}
}

func sampledStats(r sim.SampledResult) simStats {
	run := r.Series.Run
	est := r.Estimate
	return simStats{
		IPC:          []float64{run.IPC},
		Cycles:       run.Cycles,
		Instructions: []uint64{run.Instructions},
		LLC:          cache.Stats{Accesses: run.Accesses, Misses: run.Misses, Evictions: run.Evictions},
		Estimate:     &est,
	}
}

// svcStats is the slice of a single-benchmark run an sdbpd manifest
// carries: no private-level statistics.
func svcStats(ipc float64, cycles, instructions uint64, llc cache.Stats) simStats {
	return simStats{IPC: []float64{ipc}, Cycles: cycles, Instructions: []uint64{instructions}, LLC: llc}
}

// runDigests recomputes the reference digest of every pool entry of every
// workload through the same public calls the workloads make, and prints
// or writes the table.
func runDigests(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench digests", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.String("write", "", "write the table to this file instead of standard output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := time.Now()
	out := refs{}
	add := func(workload, key string, s simStats) {
		if out[workload] == nil {
			out[workload] = map[string]string{}
		}
		out[workload][key] = s.digest()
	}
	err := func() error {
		for _, b := range scBenches {
			for _, p := range scPolicies {
				c, err := resolveCell(b, "", p, 1, "")
				if err != nil {
					return err
				}
				add("sc-sweep", c.key, singleStats(c.runSingle()))
			}
		}
		for _, m := range quadMixes {
			for _, p := range quadPolicies {
				c, err := resolveCell("", m, p, 1, "")
				if err != nil {
					return err
				}
				r, err := c.runMix()
				if err != nil {
					return err
				}
				add("quad-mix", c.key, multiStats(r))
			}
		}
		zoo, err := materializeZoo(".", zooBenches)
		if err != nil {
			return err
		}
		pols, err := resolvePolicies(zooPolicies)
		if err != nil {
			return err
		}
		for _, z := range zoo {
			for i, p := range pols {
				r, err := replayZoo(z, p)
				if err != nil {
					return err
				}
				add("sampled-zoo", zooKey(z, zooPolicies[i]), sampledStats(r))
			}
		}
		for _, s := range svcPool() {
			c, err := resolveCell(s.Workloads[0], "", s.Policy, s.Scale, s.LLC)
			if err != nil {
				return err
			}
			r := c.runSingle()
			add("svc-mixed", c.key, svcStats(r.IPC, r.Cycles, r.Instructions, r.LLC))
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench digests:", err)
		return 1
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench digests:", err)
		return 1
	}
	b = append(b, '\n')
	if *write == "" {
		stdout.Write(b)
	} else if err := os.WriteFile(*write, b, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench digests:", err)
		return 1
	}
	var n int
	names := make([]string, 0, len(out))
	for w, m := range out {
		n += len(m)
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "perfbench digests: %d references over %v in %v\n", n, names, time.Since(start).Round(time.Second))
	return 0
}
