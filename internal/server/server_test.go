package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"protest"
	"protest/internal/artifact"
)

const testSeed = 7

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = testSeed
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// directReport runs the same pipeline through a local Session with the
// server's configuration — the reference the HTTP path must match
// bit-for-bit.
func directReport(t *testing.T, circuit string, spec protest.PipelineSpec) *protest.Report {
	t.Helper()
	c, ok := protest.Benchmark(circuit)
	if !ok {
		t.Fatalf("unknown benchmark %q", circuit)
	}
	s, err := protest.Open(c, protest.WithSeed(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportJSON(t *testing.T, rep *protest.Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The served pipeline must be byte-identical to the equivalent CLI /
// library run: same artifacts, same seeds, same arithmetic.
func TestPipelineRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := protest.PipelineSpec{Optimize: true, SimPatterns: 128}

	resp, body := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec:       spec,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got protest.Report
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, body)
	}
	want := directReport(t, "c17", spec)
	if g, w := reportJSON(t, &got), reportJSON(t, want); g != w {
		t.Fatalf("served report differs from direct Session run:\n got %s\nwant %s", g, w)
	}
}

// Concurrent requests — same circuit and different circuits mixed —
// must all succeed on the shared artifacts and return the same reports
// a serial client would see.  The direct runs warm the store, so the
// burst builds nothing.
func TestPipelineConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 8, MaxQueue: 32})
	spec := protest.PipelineSpec{SimPatterns: 64}
	want := map[string]string{
		"c17":  reportJSON(t, directReport(t, "c17", spec)),
		"add8": reportJSON(t, directReport(t, "add8", spec)),
	}
	before := artifact.Default.Stats()

	const perCircuit = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*perCircuit)
	for circuit := range want {
		for i := 0; i < perCircuit; i++ {
			wg.Add(1)
			go func(circuit string) {
				defer wg.Done()
				data, _ := json.Marshal(PipelineRequest{CircuitRef: CircuitRef{Circuit: circuit}, Spec: spec})
				resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", circuit, resp.StatusCode, body)
					return
				}
				var rep protest.Report
				if err := json.Unmarshal(body, &rep); err != nil {
					errs <- err
					return
				}
				data, _ = json.Marshal(&rep)
				if string(data) != want[circuit] {
					errs <- fmt.Errorf("%s: concurrent report diverged", circuit)
				}
			}(circuit)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := artifact.Default.Stats(); after.Builds != before.Builds {
		t.Errorf("the burst built artifacts: builds %d -> %d", before.Builds, after.Builds)
	}
	if st := srv.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("in flight %d, queued %d after the burst, want 0 and 0", st.InFlight, st.Queued)
	}
}

// Saturation must produce fast 429s: with one execution slot and a
// one-deep queue, the third simultaneous request is rejected.  The
// specs differ (distinct SimPatterns), so the requests are three
// distinct computations that cannot coalesce onto one another.
func TestAdmission429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-release
	}

	reqFor := func(patterns int) PipelineRequest {
		return PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{SimPatterns: patterns}}
	}
	statuses := make(chan int, 2)
	post := func(patterns int) {
		data, _ := json.Marshal(reqFor(patterns))
		resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			statuses <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}

	go post(16) // A: takes the slot, parks in the hook
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the run hook")
	}
	go post(17) // B: fills the queue
	waitFor(t, "request to queue", func() bool { return srv.Stats().Queued == 1 })

	// C: no slot, no queue room — immediate 429 with Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/pipeline", reqFor(18))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response is missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer estimate", ra)
	}
	if srv.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", srv.Stats().Rejected)
	}

	close(release) // let A and B run to completion
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", st)
		}
	}
}

// A disconnecting client must abort its in-flight analysis through the
// Session cancellation paths and free the slot.
func TestClientDisconnectCancels(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	// A big simulation budget keeps the run in flight long enough to
	// cancel it mid-simulate; cancellation is checked per 64-pattern
	// block, so the abort itself is prompt.
	req := PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "mult"},
		Spec:       protest.PipelineSpec{SimPatterns: 1 << 22},
	}
	data, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/pipeline", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Let the request reach the simulation, then walk away.
	waitFor(t, "request to start executing", func() bool { return srv.Stats().InFlight == 1 })
	cancel()
	<-done

	waitFor(t, "canceled run to be accounted", func() bool { return srv.Stats().Canceled == 1 })
	waitFor(t, "slot to be released", func() bool { return srv.Stats().InFlight == 0 })
	if srv.Stats().Completed != 0 {
		t.Errorf("completed = %d, want 0", srv.Stats().Completed)
	}

	// The Session must stay healthy after the abort.
	resp, body := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{
		CircuitRef: CircuitRef{Circuit: "mult"},
		Spec:       protest.PipelineSpec{SimPatterns: 64},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request failed: %d %s", resp.StatusCode, body)
	}
}

// A second request for the same circuit — arriving as an independently
// parsed netlist — must reuse the interned circuit's artifacts and
// recompute nothing: the artifact store's build counter must not move.
// The cold request builds the circuit's program, fault list, uniform
// analysis, test-length set and simulation plan.
func TestArtifactReuseAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	netlist := `# tiny unique design for the reuse test
INPUT(ra)
INPUT(rb)
INPUT(rc)
rx = AND(ra, rb)
ry = OR(rx, rc)
OUTPUT(ry)
`
	req := PipelineRequest{
		CircuitRef: CircuitRef{Netlist: netlist, Name: "server-reuse-test"},
		Spec:       protest.PipelineSpec{SimPatterns: 64},
	}
	before := artifact.Default.Stats()
	resp, first := postJSON(t, ts.URL+"/v1/pipeline", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request failed: %d %s", resp.StatusCode, first)
	}
	cold := artifact.Default.Stats()
	if n := cold.Builds - before.Builds; n < 5 {
		t.Errorf("cold request built %d artifacts, want at least 5", n)
	}

	resp, second := postJSON(t, ts.URL+"/v1/pipeline", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request failed: %d %s", resp.StatusCode, second)
	}
	warm := artifact.Default.Stats()

	if warm.Builds != cold.Builds {
		t.Errorf("second request recompiled artifacts: builds %d -> %d", cold.Builds, warm.Builds)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("same request, different reports:\n%s\n%s", first, second)
	}
}

// A circuit that returns after requests for other circuits opens a new
// Session on the artifacts the store still holds: it answers the same
// bytes and builds nothing, the uniform analysis and its test-length
// set included.
func TestReturningCircuitBuildsNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := func(i int) PipelineRequest {
		netlist := fmt.Sprintf("INPUT(a)\nINPUT(b)\nINPUT(c)\nx = AND(a, b)\ny = OR(x, c)\nOUTPUT(y)\nz = XOR(a, c)\nOUTPUT(z)\n# %d\n", i)
		return PipelineRequest{
			CircuitRef: CircuitRef{Netlist: netlist, Name: fmt.Sprintf("returning-circuit-%d", i)},
			Spec:       protest.PipelineSpec{SimPatterns: 64},
		}
	}
	var first []byte
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/pipeline", req(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("circuit %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			first = body
		}
	}
	before := artifact.Default.Stats()
	resp, again := postJSON(t, ts.URL+"/v1/pipeline", req(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("returning circuit: %d %s", resp.StatusCode, again)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("returning circuit answered other bytes:\n%s\n%s", first, again)
	}
	if after := artifact.Default.Stats(); after.Builds != before.Builds {
		t.Errorf("the returning circuit built artifacts: builds %d -> %d", before.Builds, after.Builds)
	}
}

// The SSE form must stream monotonic progress and finish with a report
// identical to the plain JSON one.
func TestPipelineSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := protest.PipelineSpec{Optimize: true, SimPatterns: 128}
	data, _ := json.Marshal(PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: spec})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/pipeline", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}

	var progressEvents int
	var reportData string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "progress":
				progressEvents++
				var pe progressEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &pe); err != nil {
					t.Fatalf("bad progress payload: %v", err)
				}
				if pe.Fraction < 0 || pe.Fraction > 1 {
					t.Fatalf("progress fraction %v out of [0,1]", pe.Fraction)
				}
			case "report":
				reportData = strings.TrimPrefix(line, "data: ")
			case "error":
				t.Fatalf("stream reported error: %s", line)
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if progressEvents == 0 {
		t.Error("stream carried no progress events")
	}
	if reportData == "" {
		t.Fatal("stream ended without a report event")
	}
	var got protest.Report
	if err := json.Unmarshal([]byte(reportData), &got); err != nil {
		t.Fatal(err)
	}
	want := directReport(t, "c17", spec)
	if g, w := reportJSON(t, &got), reportJSON(t, want); g != w {
		t.Fatalf("SSE report differs from direct run:\n got %s\nwant %s", g, w)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "c17"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Circuit != "c17" || len(ar.Faults) == 0 {
		t.Fatalf("unexpected analyze response: %s", body)
	}
	if ar.HardestProb <= 0 || ar.HardestProb > 1 {
		t.Errorf("hardest prob %v out of (0,1]", ar.HardestProb)
	}
	for _, f := range ar.Faults {
		if f.DetectProb < 0 || f.DetectProb > 1 {
			t.Errorf("fault %s detect prob %v out of [0,1]", f.Name, f.DetectProb)
		}
	}

	// A wrong-length probability vector is the caller's mistake: 400.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		InputProbs: []float64{0.5},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad probs answered %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"unknown circuit", PipelineRequest{CircuitRef: CircuitRef{Circuit: "no-such-circuit"}}},
		{"no circuit", PipelineRequest{}},
		{"both sources", PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17", Netlist: "INPUT(a)\nOUTPUT(a)\n"}}},
		{"bad fraction", PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{Fraction: 2}}},
		{"bad confidence", PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{Confidence: 1}}},
		{"bad netlist", PipelineRequest{CircuitRef: CircuitRef{Netlist: "this is not bench syntax ("}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/pipeline", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error envelope missing: %s", body)
			}
		})
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Errorf("rejected requests leaked %d slots", got)
	}
}

// A bad MISR width in a pipeline spec's BIST plan is a 400 before any
// phase runs, on the synchronous and the async endpoint alike; it used
// to answer 500 after the analysis and test-length phases.  So is a
// plan that still sends the Engine and SimWidth fields BIST plans no
// longer have, which the server used to ignore, and a negative cycle
// count, which used to run the 1024-cycle default.  A valid BIST plan
// runs.
func TestBadBISTSpecIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{
		`{"circuit":"c17","spec":{"bist":{"Cycles":128,"MISRWidth":9}}}`,
		`{"circuit":"c17","spec":{"bist":{"Cycles":128,"MISRWidth":8,"Engine":9,"SimWidth":4}}}`,
		`{"circuit":"c17","spec":{"bist":{"cycles":-5}}}`,
	} {
		for _, path := range []string{"/v1/pipeline", "/v1/jobs"} {
			resp, out := postJSON(t, ts.URL+path, json.RawMessage(bad))
			var er errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &er) != nil || er.Error == "" {
				t.Fatalf("%s %s: status %d, body %q; want 400 with the error envelope", path, bad, resp.StatusCode, out)
			}
		}
	}
	body := `{"circuit":"c17","spec":{"bist":{"Cycles":128,"MISRWidth":8}}}`
	resp, out := postJSON(t, ts.URL+"/v1/pipeline", json.RawMessage(body))
	var rep protest.Report
	if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &rep) != nil || rep.BIST == nil {
		t.Fatalf("%s: status %d, body %q; want 200 with a BIST report", body, resp.StatusCode, out)
	}
}

// An unsupported validate width and a field the endpoint does not know
// are bad requests: 400 with the error envelope before any phase runs.
// An unknown field's message names it, whether it is misspelled or one
// no request carries any more (the engine, the worker count and the
// simulation width are the server's).  Unknown fields used to be
// ignored (sim_engine 7 ran on the FFR engine, and sim_paterns
// simulated the derived budget), a validate width of 3 answered 500
// after the analysis and the BDD oracle, and width 4 was a supported
// width.
func TestUnknownEngineAndValidateWidthAre400(t *testing.T) {
	srv, ts := newTestServer(t, Config{Worker: true})
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/pipeline", `{"circuit":"c17","spec":{"sim_engine":7}}`, "sim_engine"},
		{"/v1/jobs", `{"circuit":"c17","spec":{"sim_engine":7}}`, "sim_engine"},
		{"/v1/validate", `{"circuit":"c17","spec":{"sim_engine":7}}`, "sim_engine"},
		{"/v1/pipeline", `{"circuit":"c17","spec":{"workers":2}}`, "workers"},
		{"/v1/jobs", `{"circuit":"c17","spec":{"workers":2}}`, "workers"},
		{"/v1/validate", `{"circuit":"c17","spec":{"workers":2}}`, "workers"},
		{"/v1/analyze", `{"circuit":"c17","workers":2}`, "workers"},
		{"/v1/shard", `{"name":"c17","workers":2}`, "workers"},
		{"/v1/pipeline", `{"circuit":"c17","spec":{"sim_paterns":100}}`, "sim_paterns"},
		{"/v1/jobs", `{"circuit":"c17","spec":{"sim_paterns":100}}`, "sim_paterns"},
		{"/v1/validate", `{"circuit":"c17","spec":{"max_paterns":100}}`, "max_paterns"},
		{"/v1/analyze", `{"circuit":"c17","input_prob":[0.5]}`, "input_prob"},
		{"/v1/shard", `{"name":"c17","sim_widht":8}`, "sim_widht"},
		{"/v1/shard", `{"name":"c17","sim_width":8}`, "sim_width"},
		{"/v1/pipeline", `{"circuit":"c17","spec":{"sim_width":8}}`, "sim_width"},
		{"/v1/jobs", `{"circuit":"c17","spec":{"sim_width":1}}`, "sim_width"},
		{"/v1/validate", `{"circuit":"c17","spec":{"sim_width":3}}`, ""},
		{"/v1/validate", `{"circuit":"c17","spec":{"sim_width":4}}`, ""},
	} {
		resp, out := postJSON(t, ts.URL+tc.path, json.RawMessage(tc.body))
		var er errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &er) != nil || er.Error == "" {
			t.Fatalf("%s %s: status %d, body %q; want 400 with the error envelope", tc.path, tc.body, resp.StatusCode, out)
		}
		if tc.field != "" && !strings.Contains(er.Error, `unknown field "`+tc.field+`"`) {
			t.Errorf("%s %s: error %q does not name the unknown field", tc.path, tc.body, er.Error)
		}
	}
	if st := srv.Stats(); st.Validate.Runs != 0 || st.AnalyzePasses != 0 || st.Coalesce.Leads != 0 || st.Jobs.Submitted != 0 {
		t.Errorf("a rejected request must not run: %+v", st)
	}
}

// A bad pipeline spec is refused before its circuit is resolved, as
// on /v1/validate: with an unknown circuit or a malformed inline
// netlist, /v1/pipeline and /v1/jobs answer 400 naming the fraction,
// so an inline netlist is never parsed for a spec that cannot run.
// The circuit used to be resolved first, and the 400 named the unknown
// circuit or the netlist's parse error.
func TestBadPipelineSpecCheckedBeforeCircuit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/pipeline", "/v1/jobs"} {
		for _, body := range []string{
			`{"circuit":"nope","spec":{"fraction":2}}`,
			`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = AND(a,","spec":{"fraction":2}}`,
		} {
			resp, out := postJSON(t, ts.URL+path, json.RawMessage(body))
			var er errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &er) != nil || !strings.Contains(er.Error, "fraction") {
				t.Errorf("%s %s: status %d, body %q; want 400 naming the fraction", path, body, resp.StatusCode, out)
			}
		}
	}
	if st := srv.Stats(); st.Coalesce.Leads != 0 || st.Jobs.Submitted != 0 {
		t.Errorf("a rejected request must not run: %+v", st)
	}
}

// A transition run needs one launch/capture pair, so a budget of one
// pattern is a bad spec: 400 with the envelope, where it used to answer
// 200 with an empty body (P_SIM was 0/0).  Two and 65 patterns run.
func TestTransitionBudgetBelowTwoIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, out := postJSON(t, ts.URL+path, json.RawMessage(body))
		return resp.StatusCode, out
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/pipeline", `{"circuit":"c17","spec":{"fault_model":"transition","sim_patterns":1}}`},
		{"/v1/validate", `{"circuit":"c17","spec":{"fault_model":"transition","min_patterns":1,"max_patterns":1}}`},
	} {
		status, body := post(tc.path, tc.body)
		var er errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error == "" {
			t.Fatalf("%s %s: status %d, body %q; want 400 with the error envelope", tc.path, tc.body, status, body)
		}
	}
	for _, n := range []int{2, 65} {
		for _, tc := range []struct{ path, body string }{
			{"/v1/pipeline", fmt.Sprintf(`{"circuit":"c17","spec":{"fault_model":"transition","sim_patterns":%d}}`, n)},
			{"/v1/validate", fmt.Sprintf(`{"circuit":"c17","spec":{"fault_model":"transition","min_patterns":%d,"max_patterns":%d}}`, n, n)},
		} {
			status, body := post(tc.path, tc.body)
			if status != http.StatusOK || !json.Valid(body) {
				t.Fatalf("%s %s: status %d, body %q; want 200 with a JSON body", tc.path, tc.body, status, body)
			}
		}
	}
}

// respond encodes before it writes the status: a value JSON cannot
// encode answers 500 with the envelope.
func TestRespondUnencodableIs500(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	srv.respond(rec, http.StatusOK, math.NaN())
	var er errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
		t.Fatalf("status %d, body %q; want 500 with the error envelope", rec.Code, rec.Body.Bytes())
	}
}

func TestHealthzAndCircuits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hr healthResponse
	if err := json.Unmarshal(body, &hr); err != nil || hr.Status != "ok" {
		t.Fatalf("bad healthz body: %s", body)
	}
	// The coalescing / batching / job gauges must be wired through.
	var raw struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"coalesce", "batch", "jobs", "analyze_passes", "retry_after_seconds"} {
		if _, ok := raw.Stats[key]; !ok {
			t.Errorf("healthz stats is missing %q: %s", key, body)
		}
	}
	if hr.Stats.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", hr.Stats.RetryAfterSeconds)
	}

	resp, err = http.Get(ts.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr circuitsResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range cr.Circuits {
		if name == "c17" {
			found = true
		}
	}
	if !found {
		t.Fatalf("circuit list %v is missing c17", cr.Circuits)
	}
}

// Graceful shutdown: http.Server.Shutdown must wait for the in-flight
// analysis, then return cleanly.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{MaxInFlight: 2, Seed: testSeed})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	data, _ := json.Marshal(PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{SimPatterns: 16}})
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/pipeline", "application/json", bytes.NewReader(data))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := <-status; st != http.StatusOK {
		t.Fatalf("drained request finished with %d, want 200", st)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Slot taken; a canceled waiter leaves the queue.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.admit(ctx); err != context.Canceled {
		t.Fatalf("queued admit under canceled ctx = %v, want context.Canceled", err)
	}
	if got := a.waiting(); got != 0 {
		t.Fatalf("canceled waiter left queued gauge at %d", got)
	}
	// Fill the queue, then overflow.
	acquired := make(chan struct{})
	go func() {
		if err := a.admit(context.Background()); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	waitFor(t, "waiter to queue", func() bool { return a.waiting() == 1 })
	if err := a.admit(context.Background()); err != errBusy {
		t.Fatalf("overflow admit = %v, want errBusy", err)
	}
	a.release()
	<-acquired
	a.release()
	if a.inFlight() != 0 || a.waiting() != 0 {
		t.Fatalf("gauges not restored: inflight %d queued %d", a.inFlight(), a.waiting())
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ValidateSpec.SimWidth is deprecated and inert: /v1/validate answers
// sim_width 0, 1 and 8 with the bytes of a body that leaves it out.
func TestValidateSimWidthIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, want := postJSON(t, ts.URL+"/v1/validate", json.RawMessage(`{"circuit":"alu"}`))
	for _, w := range []int{0, 1, 8} {
		body := fmt.Sprintf(`{"circuit":"alu","spec":{"sim_width":%d}}`, w)
		resp, got := postJSON(t, ts.URL+"/v1/validate", json.RawMessage(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: answer differs from the body without sim_width:\n got %s\nwant %s", body, got, want)
		}
	}
}
