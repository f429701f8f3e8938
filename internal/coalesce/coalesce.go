// Package coalesce deduplicates concurrent identical work.
//
// Group is request-level singleflight with shared progress and a
// refcounted context merge: concurrent callers presenting the same key
// join one in-flight computation, each attaching its own progress
// callback and its own context.  The computation runs on its own
// goroutine under a merged context that is canceled only when every
// joiner has detached — one impatient caller walking away never aborts
// work other callers still wait for.  The HTTP service runs its
// pipeline computations and its /v1/analyze passes through Groups, but
// the package is independent of it.
//
// Group is safe for concurrent use.
package coalesce

import (
	"context"
	"sync"
	"sync/atomic"
)

// Group coalesces concurrent calls by key: while a computation for a
// key is in flight, further Do calls with the same key join it instead
// of starting their own.  V is the result type and P the progress
// payload fanned out to every joiner.
//
// The zero value is not usable; create Groups with NewGroup.
type Group[K comparable, V, P any] struct {
	mu    sync.Mutex
	calls map[K]*call[V, P]

	leads     atomic.Int64
	joins     atomic.Int64
	abandoned atomic.Int64
}

// NewGroup creates an empty Group.
func NewGroup[K comparable, V, P any]() *Group[K, V, P] {
	return &Group[K, V, P]{calls: make(map[K]*call[V, P])}
}

// call is one in-flight (or just-finished) computation.
type call[V, P any] struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	refs    int
	nextSub int
	subs    map[int]func(P)
	lastP   P
	hasLast bool

	// val and err are written exactly once, before done is closed, and
	// only read after <-done — the close is the publication barrier.
	val V
	err error
}

// GroupStats is a snapshot of a Group's effectiveness counters.
type GroupStats struct {
	// Leads counts computations actually started (one per distinct
	// concurrent burst of a key).
	Leads int64 `json:"leads"`
	// Joins counts callers that attached to an already in-flight
	// computation instead of starting their own — the deduplicated
	// work.
	Joins int64 `json:"joins"`
	// Abandoned counts computations canceled because every joiner
	// detached before they finished.
	Abandoned int64 `json:"abandoned"`
}

// Stats returns a snapshot of the group's counters.
func (g *Group[K, V, P]) Stats() GroupStats {
	return GroupStats{
		Leads:     g.leads.Load(),
		Joins:     g.joins.Load(),
		Abandoned: g.abandoned.Load(),
	}
}

// Do returns the result of run for key, executing run at most once per
// concurrent burst: the first caller of a key starts run on a new
// goroutine, every concurrent caller with the same key joins that
// computation and shares its result.
//
// run receives a merged context derived (values only) from the
// creating caller's ctx; it is canceled only when *every* joiner has
// detached, so one caller disconnecting never aborts work others still
// wait for.  run's emit argument fans a progress payload out to the
// onProgress callback of every current joiner (a joiner attaching
// mid-run immediately receives the most recent payload, so late
// arrivals know where the computation stands).  onProgress may be nil.
//
// Do returns run's result, or ctx.Err() when the caller's own context
// ends first — the caller stops waiting, but the computation keeps
// running for the remaining joiners.  shared reports whether this call
// joined an existing computation rather than leading one.
func (g *Group[K, V, P]) Do(ctx context.Context, key K, onProgress func(P), run func(ctx context.Context, emit func(P)) (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	c, ok := g.calls[key]
	if ok {
		g.joins.Add(1)
	} else {
		runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call[V, P]{
			cancel: cancel,
			done:   make(chan struct{}),
			subs:   make(map[int]func(P)),
		}
		g.calls[key] = c
		g.leads.Add(1)
		go func() {
			v, err := run(runCtx, c.emit)
			// Unpublish before completing: a Do arriving after done is
			// closed must start a fresh computation, not adopt a result
			// computed for an earlier burst.
			g.mu.Lock()
			if cur, ok := g.calls[key]; ok && cur == c {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			c.val, c.err = v, err
			close(c.done)
			cancel()
		}()
	}
	g.mu.Unlock()

	id := c.attach(onProgress)
	select {
	case <-c.done:
		c.detach(id, nil)
		return c.val, c.err, ok
	case <-ctx.Done():
		if c.detach(id, c.cancel) {
			g.abandoned.Add(1)
		}
		var zero V
		return zero, ctx.Err(), ok
	}
}

// attach registers one joiner and its progress callback, replaying the
// latest progress payload so late joiners catch up instantly.
func (c *call[V, P]) attach(fn func(P)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refs++
	id := c.nextSub
	c.nextSub++
	if fn != nil {
		c.subs[id] = fn
		if c.hasLast {
			fn(c.lastP)
		}
	}
	return id
}

// detach removes one joiner.  When the last joiner leaves early
// (cancel non-nil), the merged context is canceled and detach reports
// true — the computation was abandoned.
func (c *call[V, P]) detach(id int, cancel context.CancelFunc) bool {
	c.mu.Lock()
	delete(c.subs, id)
	c.refs--
	last := c.refs == 0
	c.mu.Unlock()
	if last && cancel != nil {
		cancel()
		return true
	}
	return false
}

// emit fans one progress payload out to every current subscriber.  The
// callbacks run outside the call lock so a slow consumer (an SSE write)
// never blocks attach/detach; payloads from concurrent emitters may
// interleave, exactly as concurrent workers' progress already does.
func (c *call[V, P]) emit(p P) {
	c.mu.Lock()
	c.lastP, c.hasLast = p, true
	fns := make([]func(P), 0, len(c.subs))
	for _, fn := range c.subs {
		fns = append(fns, fn)
	}
	c.mu.Unlock()
	for _, fn := range fns {
		fn(p)
	}
}
