package serve

import (
	"sync"

	"sdbp/internal/obs"
)

// maxJobs bounds the addresses whose latest trace and event feed the
// server retains; past it the oldest address is evicted first.
const maxJobs = 256

// jobTable keeps, per content address, the latest submission's trace
// and its current event feed, bounded by FIFO eviction so a
// long-running service cannot accumulate either without limit.
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]jobEntry
	order []string // insertion order of live addresses, oldest first
}

type jobEntry struct {
	trace *obs.Trace
	feed  *eventFeed
}

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]jobEntry)}
}

// submitted registers a new submission for addr: its trace replaces
// the previous one, and its feed publishes the submitted event. A
// still-live feed (a concurrent duplicate submission) is reused
// untouched so one job produces one lifecycle; a finished feed is
// replaced by a fresh generation. A new address past the cap evicts
// the oldest, closing its feed.
func (t *jobTable) submitted(addr string, tr *obs.Trace) {
	t.mu.Lock()
	j, ok := t.jobs[addr]
	if !ok {
		t.order = append(t.order, addr)
		if len(t.order) > maxJobs {
			t.jobs[t.order[0]].feed.close()
			delete(t.jobs, t.order[0])
			t.order = t.order[1:]
		}
	}
	j.trace = tr
	fresh := j.feed == nil || !j.feed.live()
	if fresh {
		j.feed = newEventFeed(addr)
	}
	t.jobs[addr] = j
	t.mu.Unlock()
	if fresh {
		j.feed.publish("submitted", "", 0, 0)
	}
}

// get returns addr's current trace and feed.
func (t *jobTable) get(addr string) (jobEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[addr]
	return j, ok
}

// publish appends an event to addr's current feed (no-op when there is
// none, e.g. after eviction).
func (t *jobTable) publish(addr, typ, detail string, done, total int) {
	if j, ok := t.get(addr); ok {
		j.feed.publish(typ, detail, done, total)
	}
}

// finish publishes the terminal event and closes the feed.
func (t *jobTable) finish(addr, typ, detail string) {
	if j, ok := t.get(addr); ok {
		j.feed.publish(typ, detail, 0, 0)
		j.feed.close()
	}
}
