package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// flush leaves the process memo holding one Budget-sized entry of a
// throwaway Cache, which the next admission evicts: every test starts
// from an empty LRU order whatever earlier tests left behind.
func flush(t *testing.T) {
	t.Helper()
	New[int, int]().Put(0, 0, Budget)
	if u := Stats(); u.Entries != 1 {
		t.Fatalf("after flush the memo holds %d entries, want 1", u.Entries)
	}
}

// sized is a Put size whose accounted bytes are exactly n.
func sized(n int) int { return n - entryOverhead }

func TestEvictsLeastRecentlyUsedByBytes(t *testing.T) {
	flush(t)
	c := New[string, int]()
	q := Budget / 4
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i, sized(q))
	}
	// Four quarters fill the budget exactly; the flush entry is gone.
	if u := Stats(); u.Bytes != Budget || u.Entries != 4 {
		t.Fatalf("stats = %+v, want %d bytes in 4 entries", u, Budget)
	}
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf(`Get("a") = %d, %t`, v, ok)
	}
	// Order, coldest first: b c d a. Half the budget must push out the
	// two coldest quarters, b and c, and nothing else.
	before := Stats().Evictions
	c.Put("e", 4, sized(2*q))
	for k, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true, "e": true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("after the half-budget Put, %q resident = %t, want %t", k, ok, want)
		}
	}
	if u := Stats(); u.Bytes != Budget || u.Entries != 3 || u.Evictions != before+2 {
		t.Errorf("stats = %+v, want %d bytes, 3 entries, %d evictions", u, Budget, before+2)
	}
}

func TestOwnersDoNotShareKeys(t *testing.T) {
	a, b := New[string, string](), New[string, string]()
	a.Put("k", "a", 1)
	if v, ok := b.Get("k"); ok {
		t.Fatalf("a second Cache sees the first one's entry %q", v)
	}
	b.Put("k", "b", 1)
	if v, _ := a.Get("k"); v != "a" {
		t.Fatalf("a Put in one Cache replaced another's value: got %q", v)
	}
}

func TestInFlightFillSurvivesEviction(t *testing.T) {
	flush(t)
	c := New[string, int]()
	started, release := make(chan struct{}), make(chan struct{})
	var fills atomic.Int32
	fill := func() (int, int, error) {
		if fills.Add(1) == 1 {
			close(started)
			<-release
		}
		return 42, 8, nil
	}
	got := make(chan int, 1)
	go func() {
		v, err := c.Do("slow", fill)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	<-started
	// Churn through twice the budget while the fill is in flight.
	other := New[int, int]()
	for i := 0; i < 8; i++ {
		other.Put(i, i, sized(Budget/4))
	}
	if u := Stats(); u.Entries != 4 {
		t.Errorf("resident entries = %d, want 4: an in-flight fill is not resident", u.Entries)
	}
	if _, ok := c.Get("slow"); ok {
		t.Error("Get reports a fill in flight as resident")
	}
	close(release)
	// A later Do finds the settled value (joining the flight, or after
	// it): the fill was never evicted, so it never runs again.
	if v, err := c.Do("slow", fill); err != nil || v != 42 {
		t.Fatalf("Do after the churn = %d, %v", v, err)
	}
	if v := <-got; v != 42 {
		t.Fatalf("leader got %d", v)
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
}

func TestConcurrentDoRunsOneFill(t *testing.T) {
	c := New[int, []byte]()
	release := make(chan struct{})
	var fills atomic.Int32
	const callers = 32
	var ready, done sync.WaitGroup
	vals := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			v, err := c.Do(7, func() ([]byte, int, error) {
				fills.Add(1)
				<-release
				b := make([]byte, 64)
				return b, cap(b), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d concurrent Do calls ran %d fills, want 1", callers, n)
	}
	for i, v := range vals {
		if &v[0] != &vals[0][0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
}

func TestFailedFillIsNotKept(t *testing.T) {
	c := New[string, int]()
	boom := errors.New("boom")
	before := Stats()
	if _, err := c.Do("k", func() (int, int, error) { return 0, 8, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	func() {
		defer func() { recover() }()
		c.Do("k", func() (int, int, error) { panic("fill bug") })
	}()
	if u := Stats(); u.Entries != before.Entries || u.Bytes != before.Bytes {
		t.Errorf("failed fills left %+v, want %+v", u, before)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a failed fill is resident")
	}
	calls := 0
	v, err := c.Do("k", func() (int, int, error) { calls++; return 5, 8, nil })
	if err != nil || v != 5 || calls != 1 {
		t.Fatalf("Do after failures = %d, %v with %d fills; want 5, nil, 1", v, err, calls)
	}
}

func TestPanickedFillReleasesWaiters(t *testing.T) {
	c := New[string, int]()
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do("p", func() (int, int, error) {
			close(started)
			<-release
			panic("fill bug")
		})
	}()
	<-started
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do("p", func() (int, int, error) { return 1, 8, nil })
		errc <- err
	}()
	close(release)
	// The waiter either joined the panicked flight or ran its own fill
	// after the panic; it must never block.
	if err := <-errc; err != nil && !errors.Is(err, errFillPanicked) {
		t.Fatalf("waiter error = %v", err)
	}
}

func TestBoundIsBudgetPlusOneEntry(t *testing.T) {
	flush(t)
	c := New[int, int]()
	c.Put(-1, 0, sized(2*Budget))
	if u := Stats(); u.Entries != 1 || u.Bytes != 2*Budget {
		t.Fatalf("an entry over the budget: stats %+v, want it admitted alone at %d bytes", u, 2*Budget)
	}
	if _, ok := c.Get(-1); !ok {
		t.Fatal("an entry over the budget was not admitted")
	}
	sizes := []int{Budget / 3, Budget / 7, Budget / 2, 3 * Budget / 2, Budget / 5, Budget, 17, Budget / 3}
	for i, n := range sizes {
		c.Put(i, i, sized(n))
		if u := Stats(); u.Bytes > Budget && u.Entries != 1 {
			t.Fatalf("after Put %d: %d bytes in %d entries; over Budget only when alone", i, u.Bytes, u.Entries)
		}
	}
}
