package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protest/internal/faultsim"
)

// chaosPool builds a Pool whose transport injects the given policies.
func chaosPool(t *testing.T, addrs []string, policies map[string]Policy, mod func(*Config)) (*Pool, *ChaosTransport) {
	t.Helper()
	tr := NewChaosTransport(&LocalTransport{Exec: NewExecutor()})
	for addr, p := range policies {
		tr.SetPolicy(addr, p)
	}
	cfg := Config{
		Workers:       addrs,
		Transport:     tr,
		shardTimeout:  5 * time.Second,
		backoffBase:   time.Millisecond,
		backoffMax:    4 * time.Millisecond,
		probeInterval: time.Minute,
	}
	if mod != nil {
		mod(&cfg)
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p, tr
}

// chaosBudget is the pattern budget of the chaos runs: 64 blocks, or 8
// whole chunks, which two healthy workers cut into 8 shards, so the
// injected failures land on shard calls and not only on the netlist
// resend that follows a cold worker's first miss.
const (
	chaosBudget = 4096
	chaosShards = 8
)

// checkShardCount fails unless the run was cut into chaosShards shards,
// each completed once, remotely or by a local fallback.
func checkShardCount(t *testing.T, st Stats) {
	t.Helper()
	if n := st.Shards + st.LocalFallbacks; n != chaosShards {
		t.Fatalf("%d shards completed, want %d: %+v", n, chaosShards, st)
	}
}

// TestChaosInjectedErrorsRetry: workers failing every other or every
// third call must cost retries, never correctness.  Each worker gets
// the first attempts of 4 shards, so both see injected failures.
func TestChaosInjectedErrorsRetry(t *testing.T) {
	run := newTestRun(t, "alu")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {ErrEvery: 2},
		"w2": {ErrEvery: 3},
	}, nil)
	got, err := run.detect(p, nil, chaosBudget)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/errors", got, serialDetect(t, run, nil, chaosBudget))
	st := p.Stats()
	checkShardCount(t, st)
	if st.Retries == 0 {
		t.Fatalf("no retries recorded under injected errors: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Failures == 0 {
			t.Fatalf("no injected error reached worker %s: %+v", w.Addr, st)
		}
	}
}

// TestChaosDroppedCallsTimeOut: a black-holed request must be cut by
// the per-attempt deadline and retried elsewhere, not hang the run.
// w1 gets the first attempts of 4 shards, and at least two of its
// calls are dropped.
func TestChaosDroppedCallsTimeOut(t *testing.T) {
	run := newTestRun(t, "c17")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {DropEvery: 2},
	}, func(cfg *Config) {
		cfg.shardTimeout = 30 * time.Millisecond
	})
	done := make(chan struct{})
	var res *faultsim.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = run.detect(p, nil, chaosBudget)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on dropped calls")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	sameDetect(t, "c17/drops", res, serialDetect(t, run, nil, chaosBudget))
	st := p.Stats()
	checkShardCount(t, st)
	if st.Workers[0].Failures < 2 || st.Retries < 2 {
		t.Fatalf("want at least 2 timed-out calls on w1, each retried: %+v", st)
	}
}

// TestChaosCancelledRunIsNotAFailure: a caller that gives up on a run
// whose calls hang gets context.Canceled at once, and its cancellation
// is held against no worker: no retry, failure, ejection or local
// fallback.
func TestChaosCancelledRunIsNotAFailure(t *testing.T) {
	run := newTestRun(t, "alu")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {DropEvery: 1},
		"w2": {DropEvery: 1},
	}, nil)
	ctx, cancel := context.WithCancel(t.Context())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := p.MeasureDetection(ctx, run.plan, run.model, testSeed, nil, 257, faultsim.Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > p.cfg.shardTimeout/2 {
		t.Fatalf("cancelled run returned after %v, per-attempt deadline %v", d, p.cfg.shardTimeout)
	}
	st := p.Stats()
	if st.Retries != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("cancellation cost a retry or a local fallback: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Failures != 0 || w.Ejections != 0 {
			t.Fatalf("cancellation held against worker %s: %+v", w.Addr, st)
		}
	}
}

// TestChaosCurveUnderErrors: the curve path has its own merge; run it
// through the same injected-failure gauntlet.
func TestChaosCurveUnderErrors(t *testing.T) {
	run := newTestRun(t, "add8")
	p, _ := chaosPool(t, []string{"w1", "w2", "w3"}, map[string]Policy{
		"w1": {ErrEvery: 2},
		"w3": {ErrEvery: 2},
	}, nil)
	cps := []int{10, 100, 300}
	got, err := run.curve(p, nil, cps)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "add8/chaos-curve", got, serialCurve(t, run, nil, cps))
}

// TestChaosCrashEjectionAndReadmission: a worker that dies mid-run is
// ejected after consecutive failures, and the rest of the run goes to
// the survivor: w2 completes its own 4 shards and at least one shard
// that failed on w1.  Once the dead worker's probes answer again it is
// re-admitted.  Results stay exact throughout.
func TestChaosCrashEjectionAndReadmission(t *testing.T) {
	run := newTestRun(t, "alu")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {CrashAfter: 1, RecoverAfter: 2},
	}, func(cfg *Config) {
		cfg.ejectAfter = 1
		cfg.probeInterval = 5 * time.Millisecond
	})
	got, err := run.detect(p, nil, chaosBudget)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/crash", got, serialDetect(t, run, nil, chaosBudget))

	st := p.Stats()
	checkShardCount(t, st)
	if st.Workers[0].Ejections == 0 {
		t.Fatalf("crashed worker never ejected: %+v", st)
	}
	if st.Workers[1].Shards < chaosShards/2+1 {
		t.Fatalf("the survivor completed %d shards, want at least %d: %+v", st.Workers[1].Shards, chaosShards/2+1, st)
	}
	// RecoverAfter failed probes revive the worker; the probe loop then
	// re-admits it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = p.Stats()
		if st.Workers[0].Readmissions > 0 && st.Workers[0].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered worker never re-admitted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosAllWorkersDownDegrades: with every worker failing, shards
// fall back to local execution; once all workers are ejected the next
// run degrades wholesale — and both paths stay bit-identical.
func TestChaosAllWorkersDownDegrades(t *testing.T) {
	run := newTestRun(t, "c17")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {ErrEvery: 1},
		"w2": {ErrEvery: 1},
	}, func(cfg *Config) {
		cfg.ejectAfter = 1
		cfg.maxAttempts = 2
	})
	got, err := run.detect(p, nil, 257)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/all-down", got, serialDetect(t, run, nil, 257))
	st := p.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatalf("no local fallbacks despite total failure: %+v", st)
	}
	if !st.Degraded {
		t.Fatalf("pool not degraded after ejecting every worker: %+v", st)
	}

	// The next run skips dispatch entirely: fully local, still exact.
	got, err = run.detect(p, nil, 257)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/degraded-run", got, serialDetect(t, run, nil, 257))
	if st = p.Stats(); st.DegradedRuns != 1 {
		t.Fatalf("degraded_runs = %d, want 1: %+v", st.DegradedRuns, st)
	}
}

// httpWorker is a minimal in-test worker process: the real shard
// endpoint wire format over a real HTTP server, with a kill switch, a
// restart that replaces its Executor, and a count of the connections
// it accepted.
type httpWorker struct {
	exec  atomic.Pointer[Executor]
	calls atomic.Int64
	dead  atomic.Bool
	// arrays answers in the wire format from before packed vectors:
	// counts and first positions as JSON arrays of numbers.
	arrays atomic.Bool
	// restartAt, when positive, replaces the Executor before serving
	// that call: a restarted process that lost every circuit.
	restartAt atomic.Int64
	conns     atomic.Int64
	ts        *httptest.Server
}

// newHTTPWorker starts an httpWorker; with meet > 0 every call waits
// until meet calls are in flight together.
func newHTTPWorker(t *testing.T, meet int) *httpWorker {
	t.Helper()
	w := &httpWorker{}
	w.exec.Store(NewExecutor())
	rv := &rendezvous{n: meet}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard", func(rw http.ResponseWriter, r *http.Request) {
		if w.calls.Add(1) == w.restartAt.Load() {
			w.exec.Store(NewExecutor())
		}
		if w.dead.Load() {
			http.Error(rw, `{"error":"worker killed"}`, http.StatusInternalServerError)
			return
		}
		// Read the body before the rendezvous: net/http notices the
		// client's close, and cancels r.Context(), only once the body
		// has been read, so a call held before would outlive its
		// attempt's deadline.
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		rv.wait(r.Context())
		resp, err := w.exec.Load().Run(r.Context(), &req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrUnknownCircuit) {
				status = http.StatusNotFound // as the server's shard handler answers
			}
			http.Error(rw, `{"error":"`+err.Error()+`"}`, status)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		if w.arrays.Load() {
			json.NewEncoder(rw).Encode(struct {
				Faults int   `json:"faults"`
				Counts []int `json:"counts,omitempty"`
				First  []int `json:"first,omitempty"`
			}{resp.Faults, resp.Counts, resp.First})
			return
		}
		json.NewEncoder(rw).Encode(resp)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			http.Error(rw, "dead", http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	w.ts = httptest.NewUnstartedServer(mux)
	w.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			w.conns.Add(1)
		}
	}
	w.ts.Start()
	t.Cleanup(w.ts.Close)
	return w
}

// rendezvous holds each caller until n callers wait together (n <= 0
// holds none), or the caller's context ends.
type rendezvous struct {
	n       int
	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

func (r *rendezvous) wait(ctx context.Context) {
	if r.n <= 0 {
		return
	}
	r.mu.Lock()
	if r.all == nil {
		r.all = make(chan struct{})
	}
	all := r.all
	if r.arrived++; r.arrived == r.n {
		close(all)
		r.arrived, r.all = 0, nil
	}
	r.mu.Unlock()
	select {
	case <-all:
	case <-ctx.Done():
	}
}

// TestHTTPWorkerKilledMidRun drives the real HTTPTransport against two
// live HTTP workers and kills one after its second shard: the merged
// report must still be bit-identical to the serial oracle.  The run
// holds eight whole chunks, so it sends 8 shards, 4 to each worker.
func TestHTTPWorkerKilledMidRun(t *testing.T) {
	run := newTestRun(t, "alu")
	w1, w2 := newHTTPWorker(t, 0), newHTTPWorker(t, 0)

	// Kill w1 after it has served two shards: remaining shards routed
	// to it fail and retry on w2.
	var once atomic.Bool
	go func() {
		for {
			if w1.calls.Load() >= 2 && once.CompareAndSwap(false, true) {
				w1.dead.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	p := NewPool(Config{
		Workers:       []string{w1.ts.URL, w2.ts.URL},
		shardTimeout:  5 * time.Second,
		backoffBase:   time.Millisecond,
		backoffMax:    4 * time.Millisecond,
		ejectAfter:    2,
		probeInterval: time.Minute,
	})
	defer p.Close()

	got, err := run.detect(p, nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/killed-http", got, serialDetect(t, run, nil, 4096))
	st := p.Stats()
	if st.Shards == 0 {
		t.Fatalf("nothing ran remotely: %+v", st)
	}
}

// TestHTTPWorkerRestartedMidRun: a worker that loses its circuits
// mid-run, as a restarted process does, costs the coordinator one
// netlist resend per shard it misses, never a retry, an ejection or a
// local fallback, and the merge stays exact.
func TestHTTPWorkerRestartedMidRun(t *testing.T) {
	run := newTestRun(t, "alu")
	w := newHTTPWorker(t, 0)
	p := NewPool(Config{
		Workers:       []string{w.ts.URL},
		shardTimeout:  5 * time.Second,
		probeInterval: time.Minute,
	})
	defer p.Close()

	want := serialDetect(t, run, nil, 513)
	got, err := run.detect(p, nil, 513)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/cold", got, want)
	cold := p.Stats().CircuitMisses
	if cold == 0 {
		t.Fatal("a cold worker served digest-only shards")
	}

	// Restart before the next run's second call: the shards reaching
	// the fresh Executor miss once each.
	w.restartAt.Store(w.calls.Load() + 2)
	got, err = run.detect(p, nil, 513)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/restarted", got, want)
	st := p.Stats()
	if st.CircuitMisses <= cold {
		t.Fatalf("restart cost no circuit miss: %+v", st)
	}
	if st.Retries != 0 || st.LocalFallbacks != 0 || st.Workers[0].Failures != 0 || st.Workers[0].Ejections != 0 {
		t.Fatalf("a circuit miss cost a retry, failure or fallback: %+v", st)
	}
}

// TestArrayWorkerFallsBack: a worker from before packed vectors
// answers "counts":[…] and "first":[…].  The coordinator cannot decode
// those bodies, so every attempt fails and the shards run locally: no
// panic, no merged array, and the exact result for both kinds.
func TestArrayWorkerFallsBack(t *testing.T) {
	run := newTestRun(t, "alu")
	w := newHTTPWorker(t, 0)
	w.arrays.Store(true)
	p := NewPool(Config{
		Workers:       []string{w.ts.URL},
		shardTimeout:  5 * time.Second,
		maxAttempts:   2,
		backoffBase:   time.Millisecond,
		backoffMax:    2 * time.Millisecond,
		probeInterval: time.Minute,
	})
	defer p.Close()

	got, err := run.detect(p, nil, 513)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/arrays", got, serialDetect(t, run, nil, 513))
	cps := []int{10, 100, 513}
	curve, err := run.curve(p, nil, cps)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "alu/arrays", curve, serialCurve(t, run, nil, cps))
	st := p.Stats()
	if w.calls.Load() == 0 || st.LocalFallbacks == 0 {
		t.Fatalf("the array worker was never asked, or nothing fell back: %d calls, %+v", w.calls.Load(), st)
	}
	if st.Shards != 0 {
		t.Fatalf("%d array responses merged", st.Shards)
	}
}

// TestPoolKeepsWorkerConnectionsAlive: the default transport keeps as
// many idle connections per worker as a run sends shards at once, so a
// run over a warm pool dials none.  Each worker call waits for all 4 of
// a run's shards, which forces 4 connections open at once; the budget
// holds four whole chunks, so the run sends 4 shards.
func TestPoolKeepsWorkerConnectionsAlive(t *testing.T) {
	run := newTestRun(t, "alu")
	w := newHTTPWorker(t, 4)
	p := NewPool(Config{
		Workers:       []string{w.ts.URL},
		shardTimeout:  5 * time.Second,
		probeInterval: time.Minute,
	})
	defer p.Close()

	measure := func() {
		t.Helper()
		if _, err := run.detect(p, nil, 2048); err != nil {
			t.Fatal(err)
		}
	}
	measure()
	warm := w.conns.Load()
	measure()
	if n := w.conns.Load() - warm; n != 0 {
		t.Fatalf("a run over a warm pool opened %d new connections (%d before)", n, warm)
	}
	if st := p.Stats(); st.Shards != 8 {
		t.Fatalf("want 4 shards per run: %+v", st)
	}
}
