package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"protest"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/netlist"
	"protest/internal/shard"
)

// TestShardEndpoint: a worker-mode server executes shard requests,
// answers a digest it does not hold with 404 until the netlist was sent
// once and then byte-identically to the netlist request, and rejects
// malformed requests, requests without a digest and requests for
// blocks their run does not have; every error is a clean JSON
// envelope.
func TestShardEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Worker: true})

	c, ok := circuits.Lookup("c17")
	if !ok {
		t.Fatal("c17 missing from registry")
	}
	plan := faultsim.NewPlan(c, fault.Collapse(c))
	src, err := netlist.String(c)
	if err != nil {
		t.Fatal(err)
	}
	full := shard.Request{
		Name: c.Name, Digest: shard.Digest(c.Name, src), Netlist: src, Seed: testSeed,
		Kind: shard.KindDetect, NumPatterns: 128,
		BlockLo: 0, BlockHi: faultsim.DetectBlocks(128).Len(),
	}
	byDigest := full
	byDigest.Netlist = ""
	wrongDigest := full
	wrongDigest.Digest = shard.Digest("c17-other", src)
	noDigest := full
	noDigest.Digest = ""
	reversed := byDigest
	reversed.BlockLo, reversed.BlockHi = 2, 1

	var okBody []byte
	for _, step := range []struct {
		name   string
		req    shard.Request
		status int
		failed int64 // the worker's failed count after the step
	}{
		{"digest to a cold worker", byDigest, http.StatusNotFound, 0},
		{"netlist with its digest", full, http.StatusOK, 0},
		{"digest after the netlist", byDigest, http.StatusOK, 0},
		{"netlist with a wrong digest", wrongDigest, http.StatusBadRequest, 1},
		{"netlist without a digest", noDigest, http.StatusBadRequest, 2},
		{"neither netlist nor digest", shard.Request{Kind: shard.KindDetect}, http.StatusBadRequest, 3},
		{"digest over a reversed block range", reversed, http.StatusBadRequest, 4},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/shard", step.req)
		if resp.StatusCode != step.status {
			t.Fatalf("%s: status %d, want %d: %s", step.name, resp.StatusCode, step.status, body)
		}
		if got := srv.Stats().Failed; got != step.failed {
			t.Fatalf("%s: worker counts %d failed, want %d", step.name, got, step.failed)
		}
		if step.status != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s: error not a JSON envelope: %s", step.name, body)
			}
			continue
		}
		if okBody != nil {
			if !bytes.Equal(body, okBody) {
				t.Fatalf("%s: body %s, want %s", step.name, body, okBody)
			}
			continue
		}
		okBody = body
		var sr shard.Response
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("bad shard response %s: %v", body, err)
		}
		if want := len(plan.Faults()); sr.Faults != want || len(sr.Counts) != want {
			t.Fatalf("shard response covers %d faults (%d counts), want %d", sr.Faults, len(sr.Counts), want)
		}
	}
}

// TestShardEndpointAbsentByDefault: only -worker processes expose the
// shard endpoint.
func TestShardEndpointAbsentByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/shard", shard.Request{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-worker server answered /v1/shard with %d", resp.StatusCode)
	}
}

// TestShardedPipelineMatchesPlain is the distributed end-to-end check:
// a coordinator sharding across two worker servers returns reports
// byte-identical to a plain single-process server, and its /healthz
// reports the pool.
func TestShardedPipelineMatchesPlain(t *testing.T) {
	_, w1 := newTestServer(t, Config{Worker: true})
	_, w2 := newTestServer(t, Config{Worker: true})
	_, coord := newTestServer(t, Config{WorkerAddrs: []string{w1.URL, w2.URL}})

	spec := protest.PipelineSpec{Optimize: true, SimPatterns: 256}
	resp, body := postJSON(t, coord.URL+"/v1/pipeline", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "alu"},
		Spec:       spec,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded pipeline status %d: %s", resp.StatusCode, body)
	}
	var got protest.Report
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, body)
	}
	want := directReport(t, "alu", spec)
	if g, w := reportJSON(t, &got), reportJSON(t, want); g != w {
		t.Fatalf("sharded report differs from plain run:\n got %s\nwant %s", g, w)
	}

	hr, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var health healthResponse
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("bad healthz %s: %v", hbody, err)
	}
	if health.Shard == nil {
		t.Fatalf("coordinator healthz missing shard stats: %s", hbody)
	}
	if health.Degraded {
		t.Fatalf("coordinator degraded with two live workers: %s", hbody)
	}
	if health.Shard.Shards == 0 {
		t.Fatalf("no shards dispatched remotely: %s", hbody)
	}
}

// TestOversizedBodyGets413: a body over MaxBodyBytes is a distinct
// client mistake and must get the distinct status with a JSON body, not
// a generic 400 or a dropped connection.
func TestOversizedBodyGets413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	req := PipelineRequest{CircuitRef: CircuitRef{
		Netlist: strings.Repeat("# padding\n", 1024),
		Name:    "huge",
	}}
	resp, body := postJSON(t, ts.URL+"/v1/pipeline", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("413 body not a JSON envelope: %s", body)
	}
	if !strings.Contains(e.Error, "1024") {
		t.Fatalf("413 error does not spell out the limit: %q", e.Error)
	}
}

// TestPanicMiddlewareRecovers: a panicking handler answers 500 and is
// counted; the process survives.
func TestPanicMiddlewareRecovers(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "kaboom") {
		t.Fatalf("panic not surfaced as JSON error: %s", rec.Body.String())
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

// TestPanickingPipelineLeavesServerServing: a panic inside a pipeline
// computation (which runs on a coalesce goroutine, out of the HTTP
// middleware's reach) becomes a 500 — and the server keeps serving.
func TestPanickingPipelineLeavesServerServing(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var once atomic.Bool
	srv.testHookAdmitted = func() {
		if once.CompareAndSwap(false, true) {
			panic("pipeline exploded")
		}
	}

	spec := protest.PipelineSpec{SimPatterns: 64}
	resp, body := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec,
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking pipeline status %d: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "internal panic") {
		t.Fatalf("panic not converted to error envelope: %s", body)
	}
	if srv.Stats().Panics == 0 {
		t.Fatal("pipeline panic not counted")
	}

	// Same request again: hook disarmed, the server must serve normally.
	resp, body = postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server broken after panic: %d %s", resp.StatusCode, body)
	}
	if hr, err := http.Get(ts.URL + "/healthz"); err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", hr, err)
	} else {
		hr.Body.Close()
	}
}

// TestPanickingJobFailsCleanly: a panic on a job worker goroutine must
// fail that job with an error event, not kill the worker pool.
func TestPanickingJobFailsCleanly(t *testing.T) {
	srv, ts := newTestServer(t, Config{JobWorkers: 1})
	var once atomic.Bool
	srv.testHookJobRun = func() {
		if once.CompareAndSwap(false, true) {
			panic("job exploded")
		}
	}

	spec := protest.PipelineSpec{SimPatterns: 64}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub jobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	snap := waitJobState(t, ts.URL+"/v1/jobs/"+sub.ID, "failed")
	if !strings.Contains(snap.Error, "panicked") {
		t.Fatalf("job error does not mention the panic: %q", snap.Error)
	}

	// The single job worker survived: a second job completes.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL+"/v1/jobs/"+sub.ID, "done")
}

// TestSSEKeepAlivePings: an idle job event stream must carry `: ping`
// comments so proxies and clients do not reap the connection while a
// slow computation stays silent.
func TestSSEKeepAlivePings(t *testing.T) {
	srv, ts := newTestServer(t, Config{JobWorkers: 1, SSEKeepAlive: 15 * time.Millisecond})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookJobRun = func() {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec:       protest.PipelineSpec{SimPatterns: 64},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub jobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	<-entered // the job is parked: the stream goes idle after replay

	sr, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()

	type lineResult struct {
		line string
		err  error
	}
	lines := make(chan lineResult)
	go func() {
		sc := bufio.NewScanner(sr.Body)
		for sc.Scan() {
			lines <- lineResult{line: sc.Text()}
		}
		lines <- lineResult{err: sc.Err()}
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case lr := <-lines:
			if lr.err != nil {
				t.Fatalf("stream ended before any ping: %v", lr.err)
			}
			if bytes.HasPrefix([]byte(lr.line), []byte(": ping")) {
				return // keep-alive observed on an idle stream
			}
		case <-deadline:
			t.Fatal("no `: ping` comment within 5s on an idle SSE stream")
		}
	}
}
