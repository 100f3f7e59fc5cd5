// Package memo is the process's one cache: a least-recently-used map
// shared by everything that keeps results for the life of the process
// (sim's filtered streams and multicore member streams, instruction
// counts, sampled pilots, sdbpd's in-memory result store), bounded by a
// single byte Budget.
//
// Each user holds a Cache, its own key space in the shared map: equal
// keys in two Caches never collide. An entry's size is its filler's
// account of what the value holds, counting slice capacity rather than
// length, plus a fixed overhead for the memo's own bookkeeping.
package memo

import (
	"container/list"
	"errors"
	"sync"
	"unsafe"
)

// Budget bounds the accounted bytes of every resident entry in the
// process. DESIGN.md §8 sizes it: it holds svc-mixed's whole working
// set (the private levels' output of five 140K-access streams, 9.0 MB,
// and at most 2 MB of result manifests) with room for six scale-0.05
// sampled pilots. An entry larger than Budget is still admitted, alone,
// so the resident bytes never exceed Budget plus one entry.
const Budget = 48 << 20

// entryOverhead approximates what one entry costs beyond its value: the
// map slot, the entry and its list element, and the boxed key and value.
const entryOverhead = 256

// Usage is a snapshot of the process memo.
type Usage struct {
	// Bytes is the accounted size of every resident entry.
	Bytes int
	// Entries counts resident entries; fills in flight are not resident.
	Entries int
	// Evictions counts entries dropped to stay within Budget.
	Evictions uint64
}

// Cache is one owner's key space in the process memo. Create one with
// New; every Cache is distinct from every other.
type Cache[K comparable, V any] struct {
	_ byte // non-zero size, so every New returns a distinct pointer
}

// New returns a Cache whose keys are private to it.
func New[K comparable, V any]() *Cache[K, V] { return new(Cache[K, V]) }

type key struct {
	owner, k any
}

// entry is one key's slot. A fill in flight has elem nil: it is in the
// map, so concurrent Do calls join it, but not on the LRU list, so
// eviction never drops it.
type entry struct {
	key  key
	val  any
	size int
	err  error
	done chan struct{} // closed once a Do fill has settled
	elem *list.Element
}

// The process memo, guarded by mu.
var (
	mu        sync.Mutex
	entries   = make(map[key]*entry)
	lru       list.List // of *entry, most recently used first
	bytes     int
	evictions uint64
)

// errFillPanicked is what a fill's waiters get when the fill panicked.
var errFillPanicked = errors.New("memo: fill panicked")

// Do returns the value for k, running fill on a miss. Concurrent calls
// for one key share a single fill. fill returns the value and its size
// in bytes; a fill that fails or panics is not kept, so the next Do for
// k runs it again.
func (c *Cache[K, V]) Do(k K, fill func() (V, int, error)) (V, error) {
	kk := key{c, k}
	mu.Lock()
	if e, ok := entries[kk]; ok {
		if e.elem != nil {
			lru.MoveToFront(e.elem)
			v := e.val.(V)
			mu.Unlock()
			return v, nil
		}
		mu.Unlock()
		<-e.done
		if e.err != nil {
			var zero V
			return zero, e.err
		}
		return e.val.(V), nil
	}
	e := &entry{key: kk, err: errFillPanicked, done: make(chan struct{})}
	entries[kk] = e
	mu.Unlock()

	var v V
	size := 0
	defer func() {
		// Runs when fill panics too, with e.err still errFillPanicked.
		mu.Lock()
		if e.err == nil {
			e.val = v
			admit(e, size)
		} else {
			delete(entries, kk)
		}
		mu.Unlock()
		close(e.done)
	}()
	v, size, e.err = fill()
	return v, e.err
}

// Get returns the resident value for k; a fill in flight is a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := entries[key{c, k}]
	if !ok || e.elem == nil {
		var zero V
		return zero, false
	}
	lru.MoveToFront(e.elem)
	return e.val.(V), true
}

// Put stores v, of the given size in bytes, under k, replacing any
// resident value. While a Do fill for k is in flight, v is dropped.
func (c *Cache[K, V]) Put(k K, v V, size int) {
	kk := key{c, k}
	mu.Lock()
	defer mu.Unlock()
	if old, ok := entries[kk]; ok {
		if old.elem == nil {
			return
		}
		lru.Remove(old.elem)
		bytes -= old.size
	}
	e := &entry{key: kk, val: v}
	entries[kk] = e
	admit(e, size)
}

// admit makes e resident, then evicts from the cold end until the memo
// fits its Budget or holds e alone. The caller holds mu.
func admit(e *entry, size int) {
	e.size = size + entryOverhead
	e.elem = lru.PushFront(e)
	bytes += e.size
	for bytes > Budget && lru.Len() > 1 {
		old := lru.Remove(lru.Back()).(*entry)
		delete(entries, old.key)
		bytes -= old.size
		evictions++
	}
}

// SliceBytes is the size of s's backing array, the way fills count a
// slice: its capacity, not its length, times the element size.
func SliceBytes[T any](s []T) int {
	var elem T
	return cap(s) * int(unsafe.Sizeof(elem))
}

// Stats returns the process memo's current totals.
func Stats() Usage {
	mu.Lock()
	defer mu.Unlock()
	return Usage{Bytes: bytes, Entries: lru.Len(), Evictions: evictions}
}
