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
		ShardTimeout:  5 * time.Second,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		HedgeAfter:    -1,
		ProbeInterval: time.Minute,
	}
	if mod != nil {
		mod(&cfg)
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p, tr
}

// TestChaosInjectedErrorsRetry: workers failing every other call must
// cost retries, never correctness.
func TestChaosInjectedErrorsRetry(t *testing.T) {
	task := newTestTask(t, "alu")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {ErrEvery: 2},
		"w2": {ErrEvery: 3},
	}, nil)
	got, err := p.MeasureDetection(context.Background(), task, nil, 257, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/errors", got, serialDetect(t, task, nil, 257))
	if st := p.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded under injected errors: %+v", st)
	}
}

// TestChaosDroppedCallsTimeOut: a black-holed request must be cut by
// the per-attempt deadline and retried elsewhere, not hang the run.
func TestChaosDroppedCallsTimeOut(t *testing.T) {
	task := newTestTask(t, "c17")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {DropEvery: 2},
	}, func(cfg *Config) {
		cfg.ShardTimeout = 30 * time.Millisecond
	})
	done := make(chan struct{})
	var res *faultsim.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = p.MeasureDetection(context.Background(), task, nil, 257, nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on dropped calls")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	sameDetect(t, "c17/drops", res, serialDetect(t, task, nil, 257))
}

// TestChaosCurveUnderErrors: the curve path has its own merge; run it
// through the same injected-failure gauntlet.
func TestChaosCurveUnderErrors(t *testing.T) {
	task := newTestTask(t, "add8")
	p, _ := chaosPool(t, []string{"w1", "w2", "w3"}, map[string]Policy{
		"w1": {ErrEvery: 2},
		"w3": {ErrEvery: 2},
	}, nil)
	cps := []int{10, 100, 300}
	got, err := p.CoverageCurve(context.Background(), task, nil, cps, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "add8/chaos-curve", got, serialCurve(t, task, nil, cps))
}

// TestChaosCrashEjectionAndReadmission: a worker that dies mid-run is
// ejected after consecutive failures; once its probes answer again it
// is re-admitted.  Results stay exact throughout.
func TestChaosCrashEjectionAndReadmission(t *testing.T) {
	task := newTestTask(t, "alu")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {CrashAfter: 1, RecoverAfter: 2},
	}, func(cfg *Config) {
		cfg.EjectAfter = 1
		cfg.ProbeInterval = 5 * time.Millisecond
	})
	got, err := p.MeasureDetection(context.Background(), task, nil, 257, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/crash", got, serialDetect(t, task, nil, 257))

	st := p.Stats()
	if st.Workers[0].Ejections == 0 {
		t.Fatalf("crashed worker never ejected: %+v", st)
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
	task := newTestTask(t, "c17")
	p, _ := chaosPool(t, []string{"w1", "w2"}, map[string]Policy{
		"w1": {ErrEvery: 1},
		"w2": {ErrEvery: 1},
	}, func(cfg *Config) {
		cfg.EjectAfter = 1
		cfg.MaxAttempts = 2
	})
	got, err := p.MeasureDetection(context.Background(), task, nil, 257, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/all-down", got, serialDetect(t, task, nil, 257))
	st := p.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatalf("no local fallbacks despite total failure: %+v", st)
	}
	if !st.Degraded {
		t.Fatalf("pool not degraded after ejecting every worker: %+v", st)
	}

	// The next run skips dispatch entirely: fully local, still exact.
	got, err = p.MeasureDetection(context.Background(), task, nil, 257, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/degraded-run", got, serialDetect(t, task, nil, 257))
	if st = p.Stats(); st.DegradedRuns != 1 {
		t.Fatalf("degraded_runs = %d, want 1: %+v", st.DegradedRuns, st)
	}
}

// TestChaosHedgingStragglers: a straggling worker's shards are hedged
// onto the healthy one; the first response wins and the result is the
// exact one.
func TestChaosHedgingStragglers(t *testing.T) {
	task := newTestTask(t, "alu")
	p, _ := chaosPool(t, []string{"slow", "fast"}, map[string]Policy{
		"slow": {Delay: 300 * time.Millisecond},
	}, func(cfg *Config) {
		cfg.HedgeAfter = 10 * time.Millisecond
		cfg.ShardsPerWorker = 1
	})
	start := time.Now()
	got, err := p.MeasureDetection(context.Background(), task, nil, 257, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/hedge", got, serialDetect(t, task, nil, 257))
	if st := p.Stats(); st.Hedges == 0 {
		t.Fatalf("no hedges dispatched against a straggler: %+v (took %v)", st, time.Since(start))
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
		rv.wait(r.Context())
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
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
// report must still be bit-identical to the serial oracle.
func TestHTTPWorkerKilledMidRun(t *testing.T) {
	task := newTestTask(t, "alu")
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
		ShardTimeout:  5 * time.Second,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		EjectAfter:    2,
		HedgeAfter:    -1,
		ProbeInterval: time.Minute,
	})
	defer p.Close()

	got, err := p.MeasureDetection(context.Background(), task, nil, 513, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/killed-http", got, serialDetect(t, task, nil, 513))
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
	task := newTestTask(t, "alu")
	w := newHTTPWorker(t, 0)
	p := NewPool(Config{
		Workers:       []string{w.ts.URL},
		ShardTimeout:  5 * time.Second,
		HedgeAfter:    -1,
		ProbeInterval: time.Minute,
	})
	defer p.Close()

	want := serialDetect(t, task, nil, 513)
	got, err := p.MeasureDetection(context.Background(), task, nil, 513, nil)
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
	got, err = p.MeasureDetection(context.Background(), task, nil, 513, nil)
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

// TestPoolKeepsWorkerConnectionsAlive: the default transport keeps as
// many idle connections per worker as a run sends shards at once, so a
// run over a warm pool dials none.  Each worker call waits for all 4 of
// a run's shards, which forces 4 connections open at once.
func TestPoolKeepsWorkerConnectionsAlive(t *testing.T) {
	task := newTestTask(t, "alu")
	w := newHTTPWorker(t, 4)
	p := NewPool(Config{
		Workers:       []string{w.ts.URL},
		ShardTimeout:  5 * time.Second,
		HedgeAfter:    -1,
		ProbeInterval: time.Minute,
	})
	defer p.Close()

	run := func() {
		t.Helper()
		if _, err := p.MeasureDetection(context.Background(), task, nil, 513, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	warm := w.conns.Load()
	run()
	if n := w.conns.Load() - warm; n != 0 {
		t.Fatalf("a run over a warm pool opened %d new connections (%d before)", n, warm)
	}
	if st := p.Stats(); st.Shards != 8 {
		t.Fatalf("want 4 shards per run: %+v", st)
	}
}
