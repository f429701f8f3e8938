package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// waitState polls until the job reaches state or the deadline expires.
func waitState(t *testing.T, s *Store, id string, state State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if snap.State == state {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
	return Snapshot{}
}

// The full happy path: submit, run with progress, finish, and an event
// log that replays the whole lifecycle in order.
func TestJobLifecycle(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	defer s.Close()

	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		progress("analyze", 0.5)
		progress("analyze", 1)
		return "the-result", nil
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := waitState(t, s, id, StateDone)
	if snap.Result != "the-result" {
		t.Errorf("result = %v, want the-result", snap.Result)
	}
	if snap.Error != "" {
		t.Errorf("error = %q, want empty", snap.Error)
	}
	if snap.Progress.Phase != "analyze" || snap.Progress.Fraction != 1 {
		t.Errorf("progress = %+v, want analyze/1", snap.Progress)
	}

	// Subscribing to the finished job replays the full log and hands
	// back an already-closed live channel.
	replay, live, stop, err := s.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, open := <-live; open {
		t.Error("live channel of a finished job is not closed")
	}
	types := make([]string, len(replay))
	for i, ev := range replay {
		if ev.ID != int64(i)+1 {
			t.Errorf("event %d has id %d, want ids 1,2,3,…", i, ev.ID)
		}
		types[i] = ev.Type
	}
	want := []string{"state", "state", "progress", "progress", "result", "state"}
	if len(types) != len(want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types %v, want %v", types, want)
		}
	}
	if replay[len(replay)-1].Data != StateDone {
		t.Errorf("final state event = %v, want done", replay[len(replay)-1].Data)
	}
	if snap.LastEventID != int64(len(replay)) {
		t.Errorf("snapshot last_event_id = %d, want %d", snap.LastEventID, len(replay))
	}

	// Resuming mid-log returns exactly the unseen suffix.
	tail, _, stop2, err := s.Subscribe(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if len(tail) != len(replay)-2 || tail[0].ID != 3 {
		t.Fatalf("resume after id 2 returned %v", tail)
	}
}

// A failing job surfaces its error in the snapshot and as an "error"
// event before the terminal state event.
func TestJobFailure(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	defer s.Close()

	boom := errors.New("boom")
	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, s, id, StateFailed)
	if snap.Error != "boom" {
		t.Errorf("error = %q, want boom", snap.Error)
	}
	replay, _, stop, _ := s.Subscribe(id, 0)
	defer stop()
	sawError := false
	for _, ev := range replay {
		if ev.Type == "error" && ev.Data == "boom" {
			sawError = true
		}
	}
	if !sawError {
		t.Errorf("event log %v carries no error event", replay)
	}
}

// A live subscriber streams events as the job emits them.
func TestJobLiveSubscribe(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		<-release
		progress("late", 1)
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, s, id, StateRunning)

	replay, live, stop, err := s.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Replay covers queued + running; everything after arrives live.
	if n := len(replay); n != 2 {
		t.Fatalf("replay holds %d events, want 2 (queued, running)", n)
	}
	close(release)
	var liveTypes []string
	for ev := range live {
		liveTypes = append(liveTypes, ev.Type)
	}
	want := []string{"progress", "result", "state"}
	if len(liveTypes) != len(want) {
		t.Fatalf("live events %v, want %v", liveTypes, want)
	}
	for i := range want {
		if liveTypes[i] != want[i] {
			t.Fatalf("live events %v, want %v", liveTypes, want)
		}
	}
}

// Canceling a queued job finishes it without running; canceling a
// running one aborts it through its context.
func TestJobCancel(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	running, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return "finished", nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The single worker is busy, so this one stays queued.
	ran := false
	queued, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Get(queued)
	if snap.State != StateCanceled {
		t.Fatalf("canceled queued job is %s, want canceled immediately", snap.State)
	}

	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running, StateCanceled)
	close(release)

	// The canceled queued job must never have run.
	time.Sleep(10 * time.Millisecond)
	if ran {
		t.Error("canceled queued job executed anyway")
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown id = %v, want ErrNotFound", err)
	}
}

// Finished jobs expire TTL after completion — under the test clock,
// Sweep drives the expiry deterministically.
func TestJobTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	s := NewStore(Config{Workers: 1, TTL: time.Minute, Now: clock.now})
	defer s.Close()

	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)

	clock.advance(59 * time.Second)
	if n := s.Sweep(); n != 0 {
		t.Fatalf("sweep before TTL dropped %d jobs", n)
	}
	clock.advance(2 * time.Second)
	if n := s.Sweep(); n != 1 {
		t.Fatalf("sweep after TTL dropped %d jobs, want 1", n)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still pollable: %v", err)
	}
	if st := s.Stats(); st.Expired != 1 || st.Depth != 0 {
		t.Errorf("stats = %+v, want 1 expired, depth 0", st)
	}
}

// At capacity the store evicts the oldest finished job; full of
// unfinished work it rejects with ErrStoreFull.
func TestJobStoreFull(t *testing.T) {
	clock := newFakeClock()
	s := NewStore(Config{Workers: 1, Cap: 2, Now: clock.now})
	defer s.Close()

	release := make(chan struct{})
	blocked := func(ctx context.Context, progress func(string, float64)) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	}
	a, err := s.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	// Both held jobs are unfinished (one running, one queued): no room.
	if _, err := s.Submit(blocked); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("submit into a full store = %v, want ErrStoreFull", err)
	}

	close(release)
	waitState(t, s, a, StateDone)
	waitState(t, s, b, StateDone)

	// Now both are finished: the next submit evicts the oldest.
	c, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatalf("submit with evictable jobs = %v", err)
	}
	waitState(t, s, c, StateDone)
	if _, err := s.Get(a); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest finished job %s survived the eviction", a)
	}
	if _, err := s.Get(b); err != nil {
		t.Errorf("newer finished job %s was evicted too: %v", b, err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// Close cancels running jobs, marks queued ones canceled, and rejects
// further submits — but held snapshots stay readable.
func TestJobStoreClose(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})

	started := make(chan struct{})
	running, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Close()
	if _, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit = %v, want ErrClosed", err)
	}
	for _, id := range []string{running, queued} {
		snap, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s after Close: %v", id, err)
		}
		if !snap.State.Terminal() {
			t.Errorf("job %s is %s after Close, want a terminal state", id, snap.State)
		}
	}
}

// A panicking job function must fail that one job — error event, failed
// state — and leave the worker executing later jobs.
func TestJobPanicRecovered(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	defer s.Close()

	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		panic("job exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, s, id, StateFailed)
	if !strings.Contains(snap.Error, "panicked") || !strings.Contains(snap.Error, "job exploded") {
		t.Errorf("error = %q, want a panic message", snap.Error)
	}
	replay, _, stop, _ := s.Subscribe(id, 0)
	defer stop()
	sawError := false
	for _, ev := range replay {
		if d, ok := ev.Data.(string); ok && ev.Type == "error" && strings.Contains(d, "job exploded") {
			sawError = true
		}
	}
	if !sawError {
		t.Errorf("event log %v carries no panic error event", replay)
	}

	// The single worker survived the panic.
	ok, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		return "fine", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, ok, StateDone)
}

// park submits a job that runs until the returned release is called,
// and returns once it has started.  The test's cleanup releases it
// before Close, which waits for running jobs: a job that ignores its
// context would otherwise never return.
func park(t *testing.T, s *Store) (id string, release func()) {
	t.Helper()
	ch := make(chan struct{})
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(s.Close)
	t.Cleanup(release)
	started := make(chan struct{})
	id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
		close(started)
		<-ch
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	return id, release
}

// A job canceled while queued holds no room once it is evicted: with
// the only worker busy, every submit-then-cancel round succeeds.
func TestJobCanceledWhileQueuedFreesItsSlot(t *testing.T) {
	s := NewStore(Config{Workers: 1, Cap: 2, Now: newFakeClock().now})
	parked, release := park(t, s)
	for i := 0; i < 4; i++ {
		id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatalf("submit %d with a canceled job to evict: %v (%+v)", i, err, s.Stats())
		}
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	release()
	waitState(t, s, parked, StateDone)
}

// A parked single worker, once released, runs the queued jobs in
// submission order.
func TestJobsStartInSubmissionOrder(t *testing.T) {
	s := NewStore(Config{Workers: 1, Now: newFakeClock().now})
	_, release := park(t, s)
	var mu sync.Mutex
	var ran, ids []string
	for _, name := range []string{"A", "B", "C"} {
		id, err := s.Submit(func(ctx context.Context, progress func(string, float64)) (any, error) {
			mu.Lock()
			ran = append(ran, name)
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	release()
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(ran, ""); got != "ABC" {
		t.Fatalf("jobs ran in order %q, want ABC", got)
	}
}
