package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span: a named stretch of wall time. Plain
// registry spans (per-section timing in the manifest) carry only Name,
// Start and Duration; spans belonging to a Trace additionally carry
// the trace ID, their own span ID, their parent's span ID and any
// attributes, so a trace reconstructs into a tree.
type SpanRecord struct {
	// Name identifies the span (e.g. "section:fig4", "stage:decode").
	Name string `json:"name"`
	// Start is when the span began.
	Start time.Time `json:"start"`
	// Duration is the span's wall time.
	Duration time.Duration `json:"duration"`
	// TraceID groups the spans of one trace; empty for plain registry
	// spans.
	TraceID string `json:"trace_id,omitempty"`
	// ID is this span's identifier within its trace.
	ID string `json:"id,omitempty"`
	// Parent is the enclosing span's ID; empty for a trace's root.
	Parent string `json:"parent,omitempty"`
	// Attrs are free-form annotations (retry counts, batch sizes,
	// error summaries). Map keys serialize sorted, so a record's JSON
	// form is stable.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is an in-flight timing measurement. End it exactly once. A span
// belongs either to a Registry (StartSpan) or to a Trace (NewTrace /
// StartChild); a nil *Span is a no-op everywhere.
type Span struct {
	r     *Registry
	tr    *Trace
	name  string
	id    string
	paren string
	start time.Time
	attrs map[string]string
}

// StartSpan begins a named registry span. On a nil registry it returns
// nil, whose every method is a no-op.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, start: time.Now()}
}

// SetAttr annotates the span. Attributes must be set by the goroutine
// that owns the span before End; they are not synchronized. No-op on
// nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// StartChild begins a child span sharing the receiver's trace. On a
// nil or non-trace span it returns nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return &Span{
		tr:    s.tr,
		name:  name,
		id:    nextSpanID(),
		paren: s.id,
		start: time.Now(),
	}
}

// End finishes the span, records it in its registry or trace, and
// returns its duration (0 on nil). Ending a span twice records it
// twice; don't.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	rec := SpanRecord{
		Name: s.name, Start: s.start, Duration: d,
		ID: s.id, Parent: s.paren, Attrs: s.attrs,
	}
	switch {
	case s.tr != nil:
		rec.TraceID = s.tr.id
		s.tr.record(rec)
	case s.r != nil:
		s.r.mu.Lock()
		s.r.spans = append(s.r.spans, rec)
		s.r.mu.Unlock()
	}
	return d
}

// Spans returns the finished registry spans sorted by start time (ties
// broken by name), so the order is a function of when work began, not
// of which goroutine's End raced in first. Nil on a nil registry.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := append([]SpanRecord(nil), r.spans...)
	r.mu.RUnlock()
	sortSpans(out)
	return out
}

// sortSpans orders span records deterministically: by start time, then
// name, then span ID. Concurrent End calls append in scheduler order;
// sorting at read time keeps snapshots (and the manifests built from
// them) byte-comparable across GOMAXPROCS settings.
func sortSpans(spans []SpanRecord) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
}

// spanIDs numbers every trace and span in the process; IDs only need
// to be unique, not meaningful, so a cheap global counter does.
var spanIDs atomic.Uint64

func nextSpanID() string {
	return strconv.FormatUint(spanIDs.Add(1), 16)
}

// Trace is one hierarchical collection of spans — a job's journey
// through a pipeline. Traces are self-contained (they do not
// accumulate in a registry), so a long-running service can keep a
// bounded window of them without unbounded growth. All methods are
// safe for concurrent use and on a nil receiver.
type Trace struct {
	mu    sync.Mutex
	id    string
	spans []SpanRecord
}

// NewTrace starts a trace and returns it together with its root span.
// Children branch off the root (or any other span) via StartChild.
func NewTrace(rootName string) (*Trace, *Span) {
	t := &Trace{id: "t" + nextSpanID()}
	root := &Span{
		tr:    t,
		name:  rootName,
		id:    nextSpanID(),
		start: time.Now(),
	}
	return t, root
}

// ID returns the trace's identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

func (t *Trace) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Spans returns the trace's finished spans sorted deterministically by
// start time (see sortSpans). A trace read mid-flight returns whatever
// has ended so far; nil receiver returns nil.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// SortedAttrKeys returns a span attribute map's keys in sorted order,
// for deterministic rendering by exporters and reports.
func SortedAttrKeys(attrs map[string]string) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
