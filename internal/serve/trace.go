package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sdbp/internal/obs"
	"sdbp/internal/probe"
)

// Job tracing: every submission owns one obs.Trace whose root "job"
// span breaks into contiguous stage children (decode, cache_lookup,
// execute), with the execute stage subdivided by the pipeline
// (queue_wait, run with its attempt child, store). The trace is
// registered in the job table under the job's content address as soon
// as the address is known — a trace fetched mid-flight shows the stages
// completed so far — and the root span ends just before the response
// is written, so a finished job's trace reconciles against its
// end-to-end latency (see CheckTrace).

// traceBody is the JSON shape of GET /v1/traces/{addr}.
type traceBody struct {
	Trace string           `json:"trace"`
	Addr  string           `json:"addr"`
	Spans []obs.SpanRecord `json:"spans"`
}

// handleTrace serves a job's trace: the span list as JSON, or a Chrome
// trace-event document with ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !ValidAddr(addr) {
		s.writeError(w, http.StatusBadRequest, "", fmt.Errorf("serve: %q is not a result address (64 hex digits)", addr))
		return
	}
	j, ok := s.jobs.get(addr)
	if !ok {
		s.writeError(w, http.StatusNotFound, addr, fmt.Errorf("serve: no trace for %s", addr))
		return
	}
	spans := j.trace.Spans()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := probe.WriteSpanTraceEvents(w, spans); err != nil {
			s.cfg.Log.Printf("serve: trace export %s: %v", addr, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(traceBody{Trace: j.trace.ID(), Addr: addr, Spans: spans}, "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, addr, err)
		return
	}
	w.Write(append(b, '\n'))
}

// CheckTrace validates a completed job trace: exactly one root span,
// every span parented inside the trace and contained in its parent's
// interval, and the root's direct stage children sum-reconciling
// against the root's end-to-end duration. The stages are contiguous by
// construction, so the tolerance only absorbs scheduling jitter and
// the handler's own bookkeeping between stages.
func CheckTrace(spans []obs.SpanRecord) error {
	if len(spans) == 0 {
		return fmt.Errorf("serve: empty trace")
	}
	byID := make(map[string]obs.SpanRecord, len(spans))
	var root obs.SpanRecord
	roots := 0
	for _, sp := range spans {
		if sp.ID == "" {
			return fmt.Errorf("serve: span %q has no ID", sp.Name)
		}
		if _, dup := byID[sp.ID]; dup {
			return fmt.Errorf("serve: duplicate span ID %s", sp.ID)
		}
		byID[sp.ID] = sp
		if sp.TraceID != spans[0].TraceID {
			return fmt.Errorf("serve: span %q belongs to trace %s, not %s", sp.Name, sp.TraceID, spans[0].TraceID)
		}
		if sp.Parent == "" {
			root = sp
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("serve: trace has %d root spans, want exactly 1", roots)
	}
	const slack = 2 * time.Millisecond
	var stageSum time.Duration
	for _, sp := range spans {
		if sp.Parent == "" {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			return fmt.Errorf("serve: span %q parent %s not in trace", sp.Name, sp.Parent)
		}
		if sp.Duration <= 0 {
			return fmt.Errorf("serve: span %q never ended", sp.Name)
		}
		if sp.Start.Before(parent.Start.Add(-slack)) {
			return fmt.Errorf("serve: span %q starts before its parent %q", sp.Name, parent.Name)
		}
		if end, pend := sp.Start.Add(sp.Duration), parent.Start.Add(parent.Duration); end.After(pend.Add(slack)) {
			return fmt.Errorf("serve: span %q ends %v after its parent %q", sp.Name, end.Sub(pend), parent.Name)
		}
		if sp.Parent == root.ID {
			stageSum += sp.Duration
		}
	}
	if root.Duration <= 0 {
		return fmt.Errorf("serve: root span never ended")
	}
	if stageSum == 0 {
		return fmt.Errorf("serve: root span has no stage children")
	}
	// Sum-reconciliation: stage spans cover the job end to end.
	diff := root.Duration - stageSum
	if diff < 0 {
		diff = -diff
	}
	if tol := 10*time.Millisecond + root.Duration/10; diff > tol {
		return fmt.Errorf("serve: stage spans sum to %v but the job took %v (diff %v > tolerance %v)",
			stageSum, root.Duration, diff, tol)
	}
	return nil
}
