package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Live progress streaming: every submission opens (or reuses) its
// address's event feed in the job table, recording the job's lifecycle
// in publish order — submitted → queued → running → progress… → stored
// → done on the miss path, submitted → cached → done on a hit, with
// failed terminating an unsuccessful job. GET /v1/jobs/{addr}/events
// serves the feed as Server-Sent Events: the full history first (so
// watching a finished job replays its complete, deterministically
// ordered lifecycle), then the live tail until the feed closes or the
// client disconnects.

// JobEvent is one lifecycle event on a job's feed.
type JobEvent struct {
	// Seq numbers events within the feed from 0.
	Seq int `json:"seq"`
	// Type is the lifecycle stage: submitted, cached, queued, running,
	// progress, stored, done, failed.
	Type string `json:"type"`
	// Addr is the job's content address.
	Addr string `json:"addr"`
	// Detail names what the event concerns (a workload for progress
	// events, an error message for failed).
	Detail string `json:"detail,omitempty"`
	// Done and Total count finished work units on progress events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// eventFeed is one job generation's ordered event history. Publishing
// appends; subscribers replay the prefix they have not seen and block
// on the condition variable for the tail.
type eventFeed struct {
	mu     sync.Mutex
	cond   *sync.Cond
	addr   string
	events []JobEvent
	closed bool
}

func newEventFeed(addr string) *eventFeed {
	f := &eventFeed{addr: addr}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *eventFeed) publish(typ, detail string, done, total int) {
	f.mu.Lock()
	if !f.closed {
		f.events = append(f.events, JobEvent{
			Seq: len(f.events), Type: typ, Addr: f.addr,
			Detail: detail, Done: done, Total: total,
		})
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// live reports whether the feed is still open for events.
func (f *eventFeed) live() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.closed
}

func (f *eventFeed) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// handleEvents streams a job's lifecycle as Server-Sent Events — the
// recorded history first, then live events until the job finishes or
// the client goes away. Each event carries its sequence number as the
// SSE id, its type as the SSE event name, and the JobEvent JSON as
// data.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !ValidAddr(addr) {
		s.writeError(w, http.StatusBadRequest, "", fmt.Errorf("serve: %q is not a result address (64 hex digits)", addr))
		return
	}
	j, ok := s.jobs.get(addr)
	if !ok {
		s.writeError(w, http.StatusNotFound, addr, fmt.Errorf("serve: no job events for %s", addr))
		return
	}
	f := j.feed
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Wake the condition loop when the client disconnects.
	ctx := r.Context()
	stopWake := make(chan struct{})
	defer close(stopWake)
	go func() {
		select {
		case <-ctx.Done():
			f.cond.Broadcast()
		case <-stopWake:
		}
	}()

	next := 0
	for {
		f.mu.Lock()
		for next >= len(f.events) && !f.closed && ctx.Err() == nil {
			f.cond.Wait()
		}
		pending := append([]JobEvent(nil), f.events[next:]...)
		closed := f.closed
		f.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, ev := range pending {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b); err != nil {
				return
			}
			next++
		}
		if canFlush {
			flusher.Flush()
		}
		if closed {
			f.mu.Lock()
			drained := next >= len(f.events)
			f.mu.Unlock()
			if drained {
				return
			}
		}
	}
}
