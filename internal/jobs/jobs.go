// Package jobs is a bounded in-memory asynchronous job subsystem: a
// store of jobs executed by a fixed worker pool, each job carrying an
// append-only, id-numbered event log (state changes, throttled
// progress, the final result) that late or re-attaching subscribers
// replay from any position — the substrate of the HTTP service's
// resumable /v1/jobs API.
//
// A job outlives any one observer: submitting returns immediately with
// an id, the work runs under a store-owned context, and clients poll
// snapshots or subscribe to the event log (Subscribe replays everything
// after a given event id, then streams live).  The store is bounded
// two ways: finished jobs expire TTL after completion, and when the
// store is at capacity the oldest finished job is evicted to make room
// — if every held job is still pending or running, Submit fails with
// ErrStoreFull so overload surfaces as fast rejection, not unbounded
// memory.
//
// The store is its own queue: a free worker starts the oldest job still
// queued, in submission order, so jobs start in the order they were
// submitted and at most Workers run at once.  A job canceled while
// queued holds no room once it is evicted or expires.
//
// All methods are safe for concurrent use.
package jobs

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the store.
var (
	// ErrStoreFull is returned by Submit when the store is at capacity
	// and no finished job can be evicted.
	ErrStoreFull = errors.New("jobs: store full")
	// ErrNotFound is returned for unknown (or expired) job ids.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: store closed")
)

// State is a job's lifecycle state.
type State string

// The job states, in lifecycle order.  Done, Failed and Canceled are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Func is the work a job performs.  It runs on a worker goroutine
// under a store-owned context (canceled by Cancel or Close) and
// reports progress through the callback; the returned result is held
// in the job's snapshot and final event until the job expires.
type Func func(ctx context.Context, progress func(phase string, frac float64)) (result any, err error)

// Event is one entry of a job's append-only event log.  IDs start at 1
// and increase by 1, so a subscriber holding id n resumes with exactly
// the events it has not seen.
type Event struct {
	ID int64 `json:"id"`
	// Type is "state" (Data is the State), "progress" (Data is a
	// Progress), "result" (Data is the job's result) or "error" (Data
	// is the error text).
	Type string `json:"type"`
	Data any    `json:"data,omitempty"`
}

// Progress is the payload of "progress" events.
type Progress struct {
	Phase    string  `json:"phase"`
	Fraction float64 `json:"fraction"`
}

// Snapshot is a point-in-time view of one job, the body of a poll.
type Snapshot struct {
	ID       string   `json:"id"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Result is the job function's result; non-nil only in StateDone.
	Result any `json:"result,omitempty"`
	// Error is the failure text; non-empty only in StateFailed.
	Error       string    `json:"error,omitempty"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	LastEventID int64     `json:"last_event_id"`
}

// Config tunes a Store; the zero value selects the documented
// defaults.
type Config struct {
	// Workers is the size of the worker pool executing jobs
	// (default 2).
	Workers int
	// Cap bounds the number of jobs held, queued and finished alike
	// (default 256).
	Cap int
	// TTL is how long a finished job (and its result) stays pollable
	// (default 15 minutes).
	TTL time.Duration
	// Now is the deterministic clock hook for tests.  When set, the
	// background expiry janitor is disabled and the test drives expiry
	// explicitly through Sweep.
	Now func() time.Time
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Cap <= 0 {
		c.Cap = 256
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
}

// Store owns the jobs, their worker pool and their event logs.  Create
// one with NewStore and release it with Close.
type Store struct {
	cfg  Config
	now  func() time.Time
	stop chan struct{}
	wg   sync.WaitGroup
	seq  atomic.Uint64

	mu     sync.Mutex
	ready  sync.Cond // on mu: a job was queued, or the store closed
	closed bool
	jobs   map[string]*job
	order  *list.List // of *job, in submission order; front = oldest

	submitted atomic.Int64
	finished  atomic.Int64
	evictions atomic.Int64
	expired   atomic.Int64
}

// job is one store entry.  Mutable state is guarded by mu; the context
// and cancel are set at submit time and immutable after.
type job struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	run       Func // cleared once a worker starts the job
	state     State
	phase     string
	frac      float64
	lastPhase string
	lastFrac  float64
	result    any
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
	expiresAt time.Time // zero until terminal
	events    []Event
	subs      map[int]chan Event
	nextSub   int
}

// NewStore creates a Store and starts its worker pool.  Unless a test
// clock is installed (Config.Now), a janitor goroutine sweeps expired
// jobs in the background; Close stops workers and janitor.
func NewStore(cfg Config) *Store {
	cfg.fill()
	s := &Store{
		cfg:   cfg,
		now:   cfg.Now,
		stop:  make(chan struct{}),
		jobs:  make(map[string]*job),
		order: list.New(),
	}
	s.ready.L = &s.mu
	if s.now == nil {
		s.now = time.Now
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Now == nil {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// Close cancels every unfinished job, stops the workers and the
// janitor, and waits for them.  The store rejects Submits afterwards;
// snapshots of held jobs stay readable.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ready.Broadcast()
	held := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		held = append(held, j)
	}
	s.mu.Unlock()
	close(s.stop)
	for _, j := range held {
		j.cancel()
	}
	s.wg.Wait()
	// Workers are gone; jobs still queued will never run.  Mark them
	// canceled so pollers are not stuck on "queued" forever (finish
	// leaves finished jobs as they are).
	for _, j := range held {
		s.finish(j, StateCanceled, nil, context.Canceled)
	}
}

// Stats is a snapshot of the store's gauges and counters.
type Stats struct {
	// Depth is the number of jobs currently held, any state.
	Depth int `json:"depth"`
	// Queued and Running count unfinished jobs by state.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Submitted and Finished are lifetime counters.
	Submitted int64 `json:"submitted"`
	Finished  int64 `json:"finished"`
	// Evictions counts finished jobs dropped to make room; Expired
	// counts jobs removed by TTL expiry.
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Submitted: s.submitted.Load(),
		Finished:  s.finished.Load(),
		Evictions: s.evictions.Load(),
		Expired:   s.expired.Load(),
	}
	s.mu.Lock()
	st.Depth = len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return st
}

// Submit enqueues fn and returns its job id immediately.  It fails
// with ErrStoreFull when the store holds Cap jobs and none is finished
// (evictable), and with ErrClosed after Close.
func (s *Store) Submit(fn Func) (string, error) {
	now := s.now()
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("j%06x", s.seq.Add(1)),
		ctx:     ctx,
		cancel:  cancel,
		run:     fn,
		state:   StateQueued,
		created: now,
		subs:    make(map[int]chan Event),
	}
	j.appendEvent("state", StateQueued)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cancel()
		return "", ErrClosed
	}
	s.expireLocked(now)
	if len(s.jobs) >= s.cfg.Cap && !s.evictOldestFinishedLocked() {
		cancel()
		return "", ErrStoreFull
	}
	s.jobs[j.id] = j
	s.order.PushBack(j)
	s.ready.Signal()
	s.submitted.Add(1)
	return j.id, nil
}

// worker executes queued jobs until the store closes.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		j, fn := s.next()
		if j == nil {
			return
		}
		s.execute(j, fn)
	}
}

// next waits for a queued job, starts the oldest one and returns it
// with its function; it returns nil once the store is closed.  A job
// whose context is canceled while it is still queued is skipped: its
// canceler (Cancel or Close) finishes it.
func (s *Store) next() (*job, Func) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		for e := s.order.Front(); e != nil; e = e.Next() {
			j := e.Value.(*job)
			j.mu.Lock()
			if j.state == StateQueued && j.ctx.Err() == nil {
				j.state = StateRunning
				j.started = s.now()
				fn := j.run
				j.run = nil
				j.appendEvent("state", StateRunning)
				j.mu.Unlock()
				return j, fn
			}
			j.mu.Unlock()
		}
		s.ready.Wait()
	}
	return nil, nil
}

// execute runs one started job to a terminal state.
func (s *Store) execute(j *job, fn Func) {
	// A panicking job function fails the job instead of killing the
	// worker goroutine (and with it the process): the panic becomes the
	// job's error, surfaced like any other failure through the snapshot
	// and the event log.
	run := func() (result any, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("jobs: job panicked: %v", v)
			}
		}()
		return fn(j.ctx, func(phase string, frac float64) {
			s.progress(j, phase, frac)
		})
	}
	result, err := run()
	switch {
	case err == nil:
		s.finish(j, StateDone, result, nil)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, nil, err)
	default:
		s.finish(j, StateFailed, nil, err)
	}
}

// progress records one progress step and appends a throttled event:
// phase changes and completed phases always log, steps within a phase
// only every >= 1% — the event log stays small enough to replay whole.
func (s *Store) progress(j *job, phase string, frac float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.phase, j.frac = phase, frac
	if phase == j.lastPhase && frac < 1 && frac-j.lastFrac < 0.01 {
		return
	}
	j.lastPhase, j.lastFrac = phase, frac
	j.appendEvent("progress", Progress{Phase: phase, Fraction: frac})
}

// finish moves a job to a terminal state, appends the final events,
// closes every subscriber channel and stamps the expiry deadline.
func (s *Store) finish(j *job, state State, result any, err error) {
	now := s.now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = now
	j.expiresAt = now.Add(s.cfg.TTL)
	j.result = result
	if state == StateFailed && err != nil {
		j.err = err.Error()
	}
	switch state {
	case StateDone:
		j.appendEvent("result", result)
	case StateFailed:
		j.appendEvent("error", j.err)
	}
	j.appendEvent("state", state)
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.mu.Unlock()
	j.cancel()
	s.finished.Add(1)
}

// appendEvent appends one event (ids 1,2,3,…) and streams it to the
// live subscribers.  Callers hold j.mu.
func (j *job) appendEvent(typ string, data any) {
	ev := Event{ID: int64(len(j.events)) + 1, Type: typ, Data: data}
	j.events = append(j.events, ev)
	for id, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// The subscriber stopped draining; drop it rather than
			// block the worker.  The closed channel tells the consumer
			// to re-attach from its last seen id.
			close(ch)
			delete(j.subs, id)
		}
	}
}

// Get returns a snapshot of the job.
func (s *Store) Get(id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:          j.id,
		State:       j.state,
		Progress:    Progress{Phase: j.phase, Fraction: j.frac},
		Result:      j.result,
		Error:       j.err,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		LastEventID: int64(len(j.events)),
	}, nil
}

// Cancel cancels the job: a queued job is finished immediately, a
// running one is aborted through its context (the worker records the
// terminal state when the function returns).  Canceling a finished job
// is a no-op.
func (s *Store) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		s.finish(j, StateCanceled, nil, context.Canceled)
	}
	return nil
}

// Subscribe attaches to the job's event log: replay holds every event
// after afterID (pass 0 for the full log, or the last seen id to
// resume), and live streams events appended afterwards.  The live
// channel is closed when the job reaches a terminal state — for an
// already-finished job it arrives closed, with the remaining events in
// replay.  stop detaches early; it is safe to call after the close.
func (s *Store) Subscribe(id string, afterID int64) (replay []Event, live <-chan Event, stop func(), err error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if afterID < 0 {
		afterID = 0
	}
	if afterID > int64(len(j.events)) {
		afterID = int64(len(j.events))
	}
	replay = append([]Event(nil), j.events[afterID:]...)
	ch := make(chan Event, 256)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}, nil
	}
	subID := j.nextSub
	j.nextSub++
	j.subs[subID] = ch
	stop = func() {
		j.mu.Lock()
		if c, ok := j.subs[subID]; ok {
			close(c)
			delete(j.subs, subID)
		}
		j.mu.Unlock()
	}
	return replay, ch, stop, nil
}

// Sweep removes every expired finished job now and returns how many it
// dropped.  The background janitor calls it periodically; tests with a
// Config.Now clock call it directly after advancing time.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expireLocked(s.now())
}

func (s *Store) expireLocked(now time.Time) int {
	n := 0
	for e := s.order.Front(); e != nil; {
		next := e.Next()
		j := e.Value.(*job)
		j.mu.Lock()
		expired := !j.expiresAt.IsZero() && !now.Before(j.expiresAt)
		j.mu.Unlock()
		if expired {
			s.order.Remove(e)
			delete(s.jobs, j.id)
			s.expired.Add(1)
			n++
		}
		e = next
	}
	return n
}

// evictOldestFinishedLocked drops the oldest finished job to make room
// and reports whether it found one.
func (s *Store) evictOldestFinishedLocked() bool {
	for e := s.order.Front(); e != nil; e = e.Next() {
		j := e.Value.(*job)
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			s.order.Remove(e)
			delete(s.jobs, j.id)
			s.evictions.Add(1)
			return true
		}
	}
	return false
}

// janitor sweeps expired jobs periodically until Close: every quarter
// TTL, but at most once a millisecond, so every positive TTL works.
func (s *Store) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(max(s.cfg.TTL/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.Sweep()
		}
	}
}
