package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records what a result was measured on. Two result sets are
// comparable only when their stamps agree on everything but the
// workload, seed and commit (see sameEnv).
type stamp struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// DrivePath is the sim.RunSingle drive loop this machine takes: the
	// pipelined producer/consumer split when runtime.NumCPU() > 1, the
	// serial block loop otherwise.
	DrivePath string `json:"drive_path"`
}

func newStamp(cfg config, traced bool) stamp {
	path := "serial"
	if runtime.NumCPU() > 1 {
		path = "pipelined"
	}
	return stamp{
		Workload:   cfg.workload,
		Traced:     traced,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Commit:     commitOf(cfg.root),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DrivePath:  path,
	}
}

// sameEnv reports whether two runs were measured in one environment.
func sameEnv(a, b stamp) bool {
	return a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS &&
		a.GoVersion == b.GoVersion && a.DrivePath == b.DrivePath && a.Seconds == b.Seconds
}

// commitOf names the measured source: the VCS revision stamped into the
// build when there is one, else a hash of the repository's Go sources
// (a checkout without VCS metadata).
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// record is one run as --out appends it.
type record struct {
	Stamp  stamp   `json:"stamp"`
	Result outcome `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending record: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare prints, per workload and metric, the median of result set A
// and of result set B (two --out files). It refuses to compare sets
// whose environment stamps differ.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A.jsonl B.jsonl")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if len(rs) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s holds no records\n", path)
			return 2
		}
		sets[i] = rs
	}
	ref := sets[0][0].Stamp
	for i, rs := range sets {
		for _, r := range rs {
			if !sameEnv(ref, r.Stamp) {
				fmt.Fprintf(stderr, "perfbench: refusing to compare: %s has a run stamped %+v, %s one stamped %+v\n",
					args[i], r.Stamp, args[0], ref)
				return 1
			}
		}
	}
	type key struct {
		workload string
		traced   bool
		metric   string
	}
	values := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, rs := range sets {
		for _, r := range rs {
			for name, m := range r.Result.Metrics {
				k := key{r.Stamp.Workload, r.Stamp.Traced, name}
				values[i][k] = append(values[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.traced != b.traced {
			return !a.traced
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(stdout, "%-12s %-28s %-10s %14s %14s %8s\n", "workload", "metric", "unit", "A median", "B median", "B/A")
	for _, k := range keys {
		a, b := values[0][k], values[1][k]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(stdout, "%-12s %-28s %-10s  (only in one set)\n", k.workload, k.metric, units[k])
			continue
		}
		ma, mb := median(a), median(b)
		ratio := "-"
		if ma != 0 {
			ratio = fmt.Sprintf("%.3f", mb/ma)
		}
		fmt.Fprintf(stdout, "%-12s %-28s %-10s %14.6g %14.6g %8s  (n=%d/%d)\n", k.workload, k.metric, units[k], ma, mb, ratio, len(a), len(b))
	}
	return 0
}
