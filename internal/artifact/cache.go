package artifact

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// errBuildPanicked is what callers waiting on a build see when the
// build panics; the panic itself goes to the caller that ran it.
var errBuildPanicked = errors.New("artifact: build panicked")

// Cache is a singleflight LRU map.  The Store's artifacts and a shard
// worker's circuits by digest each live in one.
//
//   - Get builds a missing key once per concurrent burst: the first
//     caller runs the build, every concurrent caller of the key blocks
//     on the same sync.Once and receives the shared result.
//   - A failed build is not cached, so a later Get retries.
//   - Inserting beyond the capacity evicts the least recently used
//     entries, including ones still being built, which count toward
//     the bound.  Eviction only drops the cache's reference: users
//     holding a value keep it alive, and a later Get rebuilds it.
//
// All methods are safe for concurrent use.  The zero value is not
// usable; create caches with NewCache.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*cacheEntry[K, V]
	lru     list.List // of *cacheEntry; front = most recently used

	// Effectiveness counters (see Stats).  They are monotonic over the
	// cache's lifetime, so callers can diff snapshots across
	// operations.
	builds    atomic.Int64
	hits      atomic.Int64
	buildErrs atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one cache slot.  once gives singleflight semantics;
// built is set once val holds a successful build's result, so Peek can
// tell a finished entry from one in flight without touching once.
type cacheEntry[K comparable, V any] struct {
	key   K
	elem  *list.Element
	once  sync.Once
	built atomic.Bool
	val   V
	err   error
}

// Stats is a snapshot of a cache's effectiveness counters.  The
// headline signal is Builds: it advances only when a value is actually
// constructed, so "a second request for the same circuit did not
// recompile" is exactly "Builds did not change".
type Stats struct {
	// Builds counts constructions (cache misses that ran a build
	// function, including ones that later failed).
	Builds int64 `json:"builds"`
	// Hits counts lookups served by a live entry, including callers
	// that blocked on a concurrent build of the same key.
	Hits int64 `json:"hits"`
	// BuildErrors counts failed builds; failures are never cached, so
	// a later lookup retries (and counts another build).
	BuildErrors int64 `json:"build_errors"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
}

// NewCache creates a cache bounded to capacity entries (values <= 0
// select DefaultCapacity).
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[K, V]{cap: capacity, entries: make(map[K]*cacheEntry[K, V])}
}

// Get returns the value under k, running build at most once per
// concurrent burst of callers.
func (c *Cache[K, V]) Get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
	} else {
		e = &cacheEntry[K, V]{key: k}
		e.elem = c.lru.PushFront(e)
		c.entries[k] = e
		c.builds.Add(1)
		for c.lru.Len() > c.cap {
			old := c.lru.Remove(c.lru.Back()).(*cacheEntry[K, V])
			delete(c.entries, old.key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()

	e.once.Do(func() {
		// The builder drops a failed entry before its waiters wake,
		// unless eviction or a rebuild has replaced it already.
		defer func() {
			if e.built.Load() {
				return
			}
			c.mu.Lock()
			if c.entries[k] == e {
				c.lru.Remove(e.elem)
				delete(c.entries, k)
			}
			c.mu.Unlock()
			c.buildErrs.Add(1)
		}()
		e.err = errBuildPanicked
		e.val, e.err = build()
		e.built.Store(e.err == nil)
	})
	if e.err != nil {
		var zero V
		return zero, e.err
	}
	return e.val, nil
}

// Peek returns the value under k if its build has completed, counting
// a hit and refreshing its recency.  It never builds and never waits:
// an absent key and a key still being built both report false.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || !e.built.Load() {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits.Add(1)
	return e.val, true
}

// Len returns the current number of entries, builds in flight
// included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache's counters.  Counters are read
// individually (not under one lock), so a snapshot taken during
// concurrent traffic is approximate; quiesce first for exact deltas.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Builds:      c.builds.Load(),
		Hits:        c.hits.Load(),
		BuildErrors: c.buildErrs.Load(),
		Evictions:   c.evictions.Load(),
	}
}
