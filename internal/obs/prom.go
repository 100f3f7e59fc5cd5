package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a registry
// snapshot. Naming is stable and mechanical:
//
//   - counters expose as <name>_total with TYPE counter,
//   - gauges expose under their registry name with TYPE gauge,
//   - histograms expose as <name>_bucket{le="..."} cumulative buckets
//     (BucketBounds plus +Inf), <name>_sum and <name>_count, with TYPE
//     histogram.
//
// Families are emitted in sorted name order and every value renders
// via strconv, so the output is a deterministic function of the
// snapshot. LintPrometheus is the matching hand-rolled grammar check;
// WritePrometheus output must always pass it (test-pinned).

// ContentTypePrometheus is the content type of the text exposition.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registry name into a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*, with every illegal byte replaced by
// '_' and a leading digit prefixed.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		legal := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteByte(c)
			continue
		}
		if legal {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. The output is deterministic: families sort by exposition
// name, buckets by upper bound.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name) + "_total"
		fmt.Fprintf(bw, "# HELP %s Cumulative count of %s events.\n", n, name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", n)
		fmt.Fprintf(bw, "%s %d\n", n, snap.Counters[name])
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		fmt.Fprintf(bw, "# HELP %s Last observed value of %s.\n", n, name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", n)
		fmt.Fprintf(bw, "%s %s\n", n, promFloat(snap.Gauges[name]))
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		n := promName(name)
		fmt.Fprintf(bw, "# HELP %s Distribution of %s.\n", n, name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", n)
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", n, promFloat(b.UpperBound), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
	}

	return bw.Flush()
}

// LintPrometheus validates Prometheus text exposition grammar and the
// structural invariants a scraper relies on:
//
//   - every line is a sample, a "# HELP"/"# TYPE" comment, or blank;
//   - metric and label names match the legal charset, values parse;
//   - a family's TYPE comment precedes its samples, at most one per
//     family, and a family's lines are contiguous;
//   - histogram buckets have parseable le labels in strictly
//     increasing order with nondecreasing cumulative counts, end at
//     +Inf, and the +Inf bucket equals <name>_count;
//   - no duplicate sample (name plus label set).
//
// It is the CI/test gate for /metrics output.
func LintPrometheus(data []byte) error {
	types := map[string]string{} // family -> declared type
	lastFamily := ""             // for contiguity
	closedFamilies := map[string]bool{}
	seenSamples := map[string]bool{}
	type histState struct {
		lastLE    float64
		lastCount uint64
		sawInf    bool
		infCount  uint64
		count     *uint64
	}
	hists := map[string]*histState{}

	for lineNo, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, err := parsePromComment(line)
			if err != nil {
				return fmt.Errorf("promlint: line %d: %w", lineNo, err)
			}
			if kind == "TYPE" {
				if _, dup := types[name]; dup {
					return fmt.Errorf("promlint: line %d: duplicate TYPE for %s", lineNo, name)
				}
				if closedFamilies[name] {
					return fmt.Errorf("promlint: line %d: TYPE for %s after its samples", lineNo, name)
				}
				types[name] = typeOfComment(line)
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("promlint: line %d: %w", lineNo, err)
		}
		family := familyOf(name)
		if _, ok := types[family]; !ok {
			return fmt.Errorf("promlint: line %d: sample %s before a TYPE comment for %s", lineNo, name, family)
		}
		if family != lastFamily {
			if lastFamily != "" {
				closedFamilies[lastFamily] = true
			}
			if closedFamilies[family] {
				return fmt.Errorf("promlint: line %d: family %s is not contiguous", lineNo, family)
			}
			lastFamily = family
		}
		sampleKey := name + "{" + labels + "}"
		if seenSamples[sampleKey] {
			return fmt.Errorf("promlint: line %d: duplicate sample %s", lineNo, sampleKey)
		}
		seenSamples[sampleKey] = true

		if types[family] == "histogram" {
			hs := hists[family]
			if hs == nil {
				hs = &histState{lastLE: math.Inf(-1)}
				hists[family] = hs
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, err := leOf(labels)
				if err != nil {
					return fmt.Errorf("promlint: line %d: %w", lineNo, err)
				}
				if hs.sawInf {
					return fmt.Errorf("promlint: line %d: bucket after le=\"+Inf\" in %s", lineNo, family)
				}
				if !(le > hs.lastLE) {
					return fmt.Errorf("promlint: line %d: %s buckets not in increasing le order", lineNo, family)
				}
				cum := uint64(value)
				if value < 0 || float64(cum) != value {
					return fmt.Errorf("promlint: line %d: bucket count %v is not a non-negative integer", lineNo, value)
				}
				if cum < hs.lastCount {
					return fmt.Errorf("promlint: line %d: %s cumulative bucket counts decreased", lineNo, family)
				}
				hs.lastLE, hs.lastCount = le, cum
				if math.IsInf(le, 1) {
					hs.sawInf = true
					hs.infCount = cum
				}
			case strings.HasSuffix(name, "_count"):
				c := uint64(value)
				hs.count = &c
			}
		}
	}
	for family, hs := range hists {
		if !hs.sawInf {
			return fmt.Errorf("promlint: histogram %s has no le=\"+Inf\" bucket", family)
		}
		if hs.count == nil {
			return fmt.Errorf("promlint: histogram %s has no _count sample", family)
		}
		if *hs.count != hs.infCount {
			return fmt.Errorf("promlint: histogram %s: +Inf bucket %d != count %d", family, hs.infCount, *hs.count)
		}
	}
	return nil
}

// familyOf maps a sample name to its family: histogram samples share
// the family of their base name.
func familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parsePromComment validates a "# HELP name text" or "# TYPE name
// kind" line and returns the comment kind and metric name.
func parsePromComment(line string) (kind, name string, err error) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind = fields[1]
	name = fields[2]
	switch kind {
	case "HELP":
		// free text follows
	case "TYPE":
		if len(fields) != 4 {
			return "", "", fmt.Errorf("TYPE comment %q needs exactly a name and a type", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return "", "", fmt.Errorf("unknown metric type %q", fields[3])
		}
	default:
		return "", "", fmt.Errorf("unknown comment kind %q", kind)
	}
	if !validMetricName(name) {
		return "", "", fmt.Errorf("illegal metric name %q", name)
	}
	return kind, name, nil
}

func typeOfComment(line string) string {
	fields := strings.Fields(line)
	return fields[len(fields)-1]
}

// parsePromSample validates one sample line: name{labels} value, with
// the label set optional. Timestamps (a trailing integer) are not
// emitted by this package and are rejected.
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return "", "", 0, fmt.Errorf("sample %q has no value", line)
	}
	if brace >= 0 && brace < sp {
		name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return "", "", 0, fmt.Errorf("sample %q has an unterminated label set", line)
		}
		labels = rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
		if err := validateLabels(labels); err != nil {
			return "", "", 0, fmt.Errorf("sample %q: %w", line, err)
		}
	} else {
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("illegal metric name %q", name)
	}
	if strings.ContainsAny(rest, " \t") {
		return "", "", 0, fmt.Errorf("sample %q has trailing fields", line)
	}
	value, err = parsePromValue(rest)
	if err != nil {
		return "", "", 0, fmt.Errorf("sample %q: %w", line, err)
	}
	return name, labels, value, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable value %q", s)
	}
	return v, nil
}

// validateLabels checks a comma-separated name="value" list.
func validateLabels(labels string) error {
	if labels == "" {
		return nil
	}
	for _, pair := range strings.Split(labels, ",") {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return fmt.Errorf("label %q is not name=\"value\"", pair)
		}
		lname, lval := pair[:eq], pair[eq+1:]
		if !validMetricName(lname) || strings.Contains(lname, ":") {
			return fmt.Errorf("illegal label name %q", lname)
		}
		if len(lval) < 2 || lval[0] != '"' || lval[len(lval)-1] != '"' {
			return fmt.Errorf("label value %s is not quoted", lval)
		}
	}
	return nil
}

// leOf extracts the le label from a bucket's label set.
func leOf(labels string) (float64, error) {
	for _, pair := range strings.Split(labels, ",") {
		if !strings.HasPrefix(pair, "le=") {
			continue
		}
		raw := strings.TrimPrefix(pair, "le=")
		unq, err := strconv.Unquote(raw)
		if err != nil {
			return 0, fmt.Errorf("bucket le label %s does not unquote: %w", raw, err)
		}
		return parsePromValue(unq)
	}
	return 0, fmt.Errorf("bucket sample without an le label {%s}", labels)
}
