package serve

import (
	"context"
	"errors"
)

// errQueueFull is the admission queue's backpressure signal; the
// handler maps it to 429 + Retry-After. errShuttingDown marks work
// refused or abandoned because the server is draining; it maps to 503.
var (
	errQueueFull    = errors.New("serve: admission queue full")
	errShuttingDown = errors.New("serve: shutting down")
)

// admission bounds the execution stage. A cache-miss job takes a queue
// token (or is refused), waits for one of the run slots, gives its
// token back and runs; so at most cap(slots) jobs run at once, every
// other admitted job holds a token (the queue depth), and the jobs in
// the stage, each parked on its own submit handler, never exceed
// cap(queue)+cap(slots).
type admission struct {
	queue chan struct{}
	slots chan struct{}
	stop  chan struct{} // closed when the drain starts
}

func newAdmission(queue, slots int) *admission {
	return &admission{
		queue: make(chan struct{}, queue),
		slots: make(chan struct{}, slots),
		stop:  make(chan struct{}),
	}
}

// acquire admits a job and waits for its run slot. It fails at once
// with errQueueFull when no queue token is free, and with
// errShuttingDown once draining: no job starts after the drain began.
// A job that acquired its slot gives it back with release.
func (a *admission) acquire() error {
	select {
	case <-a.stop:
		return errShuttingDown
	case a.queue <- struct{}{}:
	default:
		return errQueueFull
	}
	defer func() { <-a.queue }()
	select {
	case <-a.stop:
		return errShuttingDown
	case a.slots <- struct{}{}:
	}
	select {
	case <-a.stop:
		<-a.slots
		return errShuttingDown
	default:
		return nil
	}
}

func (a *admission) release() { <-a.slots }

// depth is the number of admitted jobs waiting for a run slot.
func (a *admission) depth() int { return len(a.queue) }

// drain stops admission, fails every waiting job with errShuttingDown
// and takes every run slot, so it returns once the running jobs have
// finished and stored their results, or with ctx.Err() if they outlive
// the deadline.
func (a *admission) drain(ctx context.Context) error {
	close(a.stop)
	for range cap(a.slots) {
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
