package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"protest"
)

// The acceptance bar of the coalescing subsystem: 64 concurrent
// identical pipeline requests perform exactly one computation — one
// lead, 63 joins, one Session — and every caller receives the same
// bit-identical report a direct Session.Run produces.
func TestPipelineCoalesce64(t *testing.T) {
	// Two slots and a two-deep queue: far too small for 64 independent
	// computations, proving joiners consume no admission capacity.
	srv, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-release
	}

	spec := protest.PipelineSpec{SimPatterns: 64}
	data, _ := json.Marshal(PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec})

	const callers = 64
	var wg sync.WaitGroup
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make([]result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", bytes.NewReader(data))
			if err != nil {
				results[i] = result{err: err}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{status: resp.StatusCode, body: body, err: err}
		}(i)
	}

	// The one leader parks in the hook; everyone else must join its
	// in-flight computation rather than lead their own.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no leader reached the run hook")
	}
	waitFor(t, "63 joiners to attach", func() bool { return srv.pipelines.Stats().Joins == callers-1 })
	close(release)
	wg.Wait()

	want := reportJSON(t, directReport(t, "c17", spec))
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("caller %d: status %d (%s)", i, r.status, r.body)
		}
		var rep protest.Report
		if err := json.Unmarshal(r.body, &rep); err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if got := reportJSON(t, &rep); got != want {
			t.Fatalf("caller %d diverged from the direct run:\n got %s\nwant %s", i, got, want)
		}
	}

	st := srv.Stats()
	if st.Coalesce.Leads != 1 || st.Coalesce.Joins != callers-1 {
		t.Errorf("coalesce stats = %+v, want exactly 1 lead and %d joins", st.Coalesce, callers-1)
	}
	if st.Completed != callers {
		t.Errorf("completed = %d, want %d (every joiner answered)", st.Completed, callers)
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", st.Sessions)
	}
}

// Width is part of a computation's identity: a request never joins a
// computation at another width, which may take several times as long
// as its own, while an identical request still joins.  A width-1
// request leads, a default-width one arriving while it runs leads its
// own computation, and a second width-1 request joins the first: two
// leads and one join, every report the same bytes.
func TestPipelineWidthSplitsCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 4})
	// One slot per request, so no leader blocks before the release.
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-release
	}

	narrow := protest.PipelineSpec{SimPatterns: 64, SimWidth: 1}
	plain := protest.PipelineSpec{SimPatterns: 64}
	var wg sync.WaitGroup
	bodies := make([][]byte, 3)
	post := func(i int, spec protest.PipelineSpec, attached int64) {
		data, _ := json.Marshal(PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec})
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}()
		waitFor(t, "the request to attach", func() bool {
			st := srv.pipelines.Stats()
			return st.Leads+st.Joins == attached
		})
	}
	post(0, narrow, 1)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the width-1 leader never reached the run hook")
	}
	post(1, plain, 2)
	post(2, narrow, 3)
	close(release)
	wg.Wait()

	if st := srv.Stats().Coalesce; st.Leads != 2 || st.Joins != 1 {
		t.Errorf("coalesce stats = %+v, want 2 leads (one per width) and 1 join", st)
	}
	want := reportJSON(t, directReport(t, "c17", plain))
	for i, body := range bodies {
		var rep protest.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := reportJSON(t, &rep); got != want {
			t.Errorf("request %d diverged from the direct run:\n got %s\nwant %s", i, got, want)
		}
	}
}

// postAsync posts body to url on its own goroutine, storing the
// response status and body in *status and *out.
func postAsync(t *testing.T, wg *sync.WaitGroup, url string, body any, status *int, out *[]byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return
		}
		*out, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		*status = resp.StatusCode
	}()
}

// parkAdmitted makes up to n admitted computations park in the admit
// hook, each announcing itself on entered, until release is called.  A
// test that fails first releases them on cleanup, before its server
// closes.
func parkAdmitted(t *testing.T, srv *Server, n int) (entered chan struct{}, release func()) {
	entered, gate := make(chan struct{}, n), make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-gate
	}
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return entered, release
}

func awaitEntered(t *testing.T, entered chan struct{}, what string) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached the admit hook", what)
	}
}

// Identical concurrent /v1/analyze requests join one analysis pass.
// The leader parks in the admit hook until every other request has
// joined it; then all of them answer the same bytes from one pass and
// one admission slot, on a server with room for one request only.
func TestAnalyzeMicroBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	entered, release := parkAdmitted(t, srv, 1)

	const callers = 8
	var wg sync.WaitGroup
	status := make([]int, callers)
	bodies := make([][]byte, callers)
	req := AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "c17"}}
	for i := range callers {
		postAsync(t, &wg, ts.URL+"/v1/analyze", req, &status[i], &bodies[i])
	}
	awaitEntered(t, entered, "the leader")
	waitFor(t, "the other requests to join", func() bool { return srv.analyses.Stats().Joins == callers-1 })
	release()
	wg.Wait()

	for i := range callers {
		if status[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d (%s)", i, status[i], bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("joined responses diverged:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	st := srv.Stats()
	if st.Batch.Flushes != 1 || st.Batch.Requests != callers || st.Batch.MeanSize != callers {
		t.Errorf("batch stats = %+v, want one pass led for %d requests", st.Batch, callers)
	}
	if st.AnalyzePasses != 1 {
		t.Errorf("analyze passes = %d, want 1 (identical tuples share one pass)", st.AnalyzePasses)
	}
	if st.Completed != callers {
		t.Errorf("completed = %d, want %d", st.Completed, callers)
	}
}

// Distinct input tuples run distinct passes, while a request that
// differs from another only in its fault model joins that one's pass,
// which does not depend on the model.  Each response carries its own
// request's answer: the same bytes a server with no concurrent traffic
// gives.
func TestAnalyzeMixedTupleBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	entered, release := parkAdmitted(t, srv, 2)

	c, ok := protest.Benchmark("c17")
	if !ok {
		t.Fatal("benchmark c17 missing")
	}
	biased := make([]float64, c.Stats().Inputs)
	for i := range biased {
		biased[i] = 0.9
	}
	reqs := []AnalyzeRequest{
		{CircuitRef: CircuitRef{Circuit: "c17"}},
		{CircuitRef: CircuitRef{Circuit: "c17"}, InputProbs: biased},
		{CircuitRef: CircuitRef{Circuit: "c17"}, FaultModel: "transition"},
	}
	var wg sync.WaitGroup
	status := make([]int, len(reqs))
	bodies := make([][]byte, len(reqs))
	postAsync(t, &wg, ts.URL+"/v1/analyze", reqs[0], &status[0], &bodies[0])
	postAsync(t, &wg, ts.URL+"/v1/analyze", reqs[1], &status[1], &bodies[1])
	awaitEntered(t, entered, "the first leader")
	awaitEntered(t, entered, "the second leader")
	postAsync(t, &wg, ts.URL+"/v1/analyze", reqs[2], &status[2], &bodies[2])
	waitFor(t, "the transition request to join", func() bool { return srv.analyses.Stats().Joins == 1 })
	release()
	wg.Wait()

	if st := srv.Stats(); st.AnalyzePasses != 2 || st.Batch.Flushes != 2 || st.Batch.Requests != 3 {
		t.Errorf("passes %d, batch stats %+v: want 2 passes for 3 requests", st.AnalyzePasses, st.Batch)
	}
	_, quiet := newTestServer(t, Config{})
	for i, req := range reqs {
		resp, want := postJSON(t, quiet.URL+"/v1/analyze", req)
		if resp.StatusCode != http.StatusOK || status[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, alone %d (%s)", i, status[i], resp.StatusCode, want)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("request %d answered another request's analysis:\n got %s\nwant %s", i, bodies[i], want)
		}
	}
}

// A client that gives up on an analysis while it waits for a slot
// cancels it: the request is counted canceled and leaves the admission
// queue while the slot it waited for is still busy.
func TestAnalyzeDisconnectCancels(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	entered, release := parkAdmitted(t, srv, 1)

	var wg sync.WaitGroup
	var pipeStatus int
	var pipeBody []byte
	pipe := PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{SimPatterns: 16}}
	postAsync(t, &wg, ts.URL+"/v1/pipeline", pipe, &pipeStatus, &pipeBody)
	awaitEntered(t, entered, "the pipeline")

	// The analyze client gives up, as a timeout does, once its request
	// waits for the busy slot.
	data, _ := json.Marshal(AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "c17"}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	waitFor(t, "the analysis to queue for the busy slot", func() bool { return srv.Stats().Queued == 1 })
	cancel()
	if code := <-answered; code != 0 {
		t.Fatalf("analyze answered %d while the only slot was busy", code)
	}
	waitFor(t, "the analysis to be canceled and leave the queue", func() bool {
		st := srv.Stats()
		return st.Canceled == 1 && st.Queued == 0
	})
	if st := srv.analyses.Stats(); st.Abandoned != 1 {
		t.Errorf("analyze group stats = %+v, want the pass abandoned", st)
	}
	release()
	wg.Wait()
	if pipeStatus != http.StatusOK {
		t.Fatalf("parked pipeline: status %d (%s)", pipeStatus, pipeBody)
	}
	if st := srv.Stats(); st.AnalyzePasses != 0 || st.InFlight != 0 {
		t.Errorf("passes %d, in flight %d after the release: want 0 and 0", st.AnalyzePasses, st.InFlight)
	}
}

// The coalescing key must canonicalize specs: a spec relying on the
// documented defaults and one spelling them out map to one key; a spec
// that changes the result, or only the width it runs at, maps to
// another.
func TestPipelineSpecKeyCanonical(t *testing.T) {
	zero, err := pipelineSpecKey(protest.PipelineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := pipelineSpecKey(protest.PipelineSpec{
		Fraction:       1,
		Confidence:     0.95,
		QuantizeGrid:   16,
		MaxSimPatterns: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zero != spelled {
		t.Errorf("defaulted and spelled-out specs got different keys:\n%s\n%s", zero, spelled)
	}

	width, err := pipelineSpecKey(protest.PipelineSpec{SimWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if width == zero {
		t.Error("specs at width 8 and at the default width share a key")
	}

	bist, err := pipelineSpecKey(protest.PipelineSpec{BIST: &protest.BISTPlan{Cycles: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if bist == zero {
		t.Error("specs with and without a BIST plan share a key")
	}

	different, err := pipelineSpecKey(protest.PipelineSpec{SimPatterns: 128})
	if err != nil {
		t.Fatal(err)
	}
	if different == zero {
		t.Error("specs with different SimPatterns share a key")
	}

	if _, err := pipelineSpecKey(protest.PipelineSpec{Fraction: 2}); err == nil {
		t.Error("invalid spec produced a key instead of an error")
	}
}

// The Retry-After estimate grows with the work ahead of a rejected
// client: queue depth times recent service time over the parallelism.
func TestRetryAfterEstimate(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: 1, Seed: testSeed})
	defer srv.Close()

	// No completions yet: the estimate falls back to 1.
	if got := srv.retryAfterHint(); got != 1 {
		t.Errorf("cold hint = %d, want 1", got)
	}

	// One 10s completion observed, one request executing: a rejected
	// client should wait ~10s, not the old hardcoded 1.
	srv.observeService(10 * time.Second)
	if err := srv.adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.release()
	if got := srv.retryAfterHint(); got != 10 {
		t.Errorf("hint with one 10s job ahead = %d, want 10", got)
	}
}
