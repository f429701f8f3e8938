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

// Concurrent identical /v1/analyze requests must collapse into one
// micro-batch and one evaluator pass.
func TestAnalyzeMicroBatch(t *testing.T) {
	// BatchWait is effectively infinite, so the flush happens exactly
	// when the 8th request completes the batch — deterministic.
	srv, ts := newTestServer(t, Config{BatchSize: 8, BatchWait: time.Hour})

	data, _ := json.Marshal(AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "c17"}})
	const callers = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("batched responses diverged:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	st := srv.Stats()
	if st.Batch.Flushes != 1 || st.Batch.Requests != callers {
		t.Errorf("batch stats = %+v, want one flush of %d", st.Batch, callers)
	}
	if st.AnalyzePasses != 1 {
		t.Errorf("analyze passes = %d, want 1 (identical tuples share one pass)", st.AnalyzePasses)
	}
}

// A batch mixing distinct input tuples runs one pass per distinct
// tuple — not per request — and routes each response correctly.
func TestAnalyzeMixedTupleBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{BatchSize: 2, BatchWait: time.Hour})

	// A biased tuple of the circuit's input count, next to the uniform
	// default — two distinct tuples in one batch.
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
	}
	passesBefore := srv.Stats().AnalyzePasses
	var wg sync.WaitGroup
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req AnalyzeRequest) {
			defer wg.Done()
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("req %d: status %d (%s)", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i, req)
	}
	wg.Wait()

	if got := srv.Stats().AnalyzePasses - passesBefore; got != 2 {
		t.Errorf("mixed batch ran %d passes, want 2 (one per distinct tuple)", got)
	}
	var uniform, skewed AnalyzeResponse
	if err := json.Unmarshal(bodies[0], &uniform); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodies[1], &skewed); err != nil {
		t.Fatal(err)
	}
	if uniform.HardestProb == skewed.HardestProb && bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("distinct tuples returned identical analyses — responses misrouted?")
	}
}

// NoCoalesce restores the pre-coalescing behavior: every request is an
// independent computation, and results are still correct.
func TestNoCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{NoCoalesce: true})
	spec := protest.PipelineSpec{SimPatterns: 64}
	want := reportJSON(t, directReport(t, "c17", spec))
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var rep protest.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, &rep); got != want {
			t.Fatalf("uncoalesced report differs from direct run:\n got %s\nwant %s", got, want)
		}
	}
	st := srv.Stats()
	if st.Coalesce.Leads != 0 || st.Coalesce.Joins != 0 {
		t.Errorf("coalesce stats moved under NoCoalesce: %+v", st.Coalesce)
	}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "c17"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Batch.Flushes != 0 || st.AnalyzePasses != 1 {
		t.Errorf("direct analyze: batch %+v passes %d, want no batching and 1 pass", st.Batch, st.AnalyzePasses)
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
