package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"protest"
	"protest/internal/artifact"
)

// The served validation run must match the equivalent direct Session
// run byte for byte — same seed, same pattern counts, same flags.
func TestValidateRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := protest.ValidateSpec{MinPatterns: 2048, MaxPatterns: 2048}

	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec:       spec,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got protest.ValidateReport
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, body)
	}

	c, _ := protest.Benchmark("c17")
	s, err := protest.Open(c, protest.WithSeed(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Validate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(&got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("served report differs from direct run:\n got %s\nwant %s", g, w)
	}
	if !got.Pass {
		t.Fatalf("c17 default validation must pass, flags: %+v", got.Flags)
	}

	st := srv.Stats()
	if st.Validate.Runs != 1 || st.Validate.Passed != 1 || st.Validate.FlaggedRuns != 0 {
		t.Errorf("validate counters after one passing run: %+v", st.Validate)
	}
	if st.Validate.Flags != 0 {
		t.Errorf("flags counter = %d after a clean run", st.Validate.Flags)
	}
}

// A run whose BDD blows the budget must still answer 200 with the skip
// recorded, and the healthz skip counter must advance.
func TestValidateBudgetSkipCounted(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec: protest.ValidateSpec{
			BDDBudget:   3,
			MinPatterns: 1024,
			MaxPatterns: 1024,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep protest.ValidateReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HasExact {
		t.Error("a 3-node budget cannot build c17's BDDs")
	}
	if len(rep.Skips) == 0 {
		t.Fatal("budget skip missing from the served report")
	}
	if st := srv.Stats(); st.Validate.Skips == 0 {
		t.Errorf("skip counter did not advance: %+v", st.Validate)
	}
}

// Spec mistakes are the client's fault: 400, not 500, and no validate
// run is counted.
func TestValidateBadSpecIs400(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec:       protest.ValidateSpec{Epsilon: 2},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (want 400): %s", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Validate.Runs != 0 {
		t.Errorf("a rejected spec must not count as a run: %+v", st.Validate)
	}

	resp, body = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		CircuitRef: CircuitRef{Circuit: "no-such-circuit"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown circuit: status %d (want 400): %s", resp.StatusCode, body)
	}
}

// A bad spec is refused before admission: while a parked pipeline
// holds the only slot, {"epsilon":2} answers 400 at once, for a named
// circuit and for an inline netlist alike, without queueing and
// without building an artifact (opening a Session on the inline
// netlist would build its fault list and program).  It used to queue
// for the slot and run the analytic oracle before the 400.
func TestValidateBadSpecRefusedBeforeAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	entered, release := parkAdmitted(t, srv, 1)

	var wg sync.WaitGroup
	var pipeStatus int
	var pipeBody []byte
	pipe := PipelineRequest{CircuitRef: CircuitRef{Circuit: "c17"}, Spec: protest.PipelineSpec{SimPatterns: 16}}
	postAsync(t, &wg, ts.URL+"/v1/pipeline", pipe, &pipeStatus, &pipeBody)
	awaitEntered(t, entered, "the pipeline")
	before := artifact.Default.Stats()

	for _, body := range []string{
		`{"circuit":"c17","spec":{"epsilon":2}}`,
		`{"netlist":"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n","spec":{"epsilon":2}}`,
	} {
		var status int
		var out []byte
		var answered sync.WaitGroup
		postAsync(t, &answered, ts.URL+"/v1/validate", json.RawMessage(body), &status, &out)
		done := make(chan struct{})
		go func() { answered.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			release()
			<-done
			t.Fatalf("%s: no answer while the only slot was busy (then %d: %s)", body, status, out)
		}
		if status != http.StatusBadRequest || !strings.Contains(string(out), "epsilon 2 out of (0,1)") {
			t.Fatalf("%s: status %d, body %s; want 400 naming epsilon", body, status, out)
		}
	}
	if st := srv.Stats(); st.Queued != 0 || st.InFlight != 1 || st.Validate.Runs != 0 {
		t.Errorf("queued %d, in flight %d, validate runs %d: want 0, 1 (the pipeline) and 0",
			st.Queued, st.InFlight, st.Validate.Runs)
	}
	if after := artifact.Default.Stats(); after.Builds != before.Builds {
		t.Errorf("the refused requests built artifacts: builds %d -> %d", before.Builds, after.Builds)
	}
	release()
	wg.Wait()
	if pipeStatus != http.StatusOK {
		t.Fatalf("parked pipeline: status %d (%s)", pipeStatus, pipeBody)
	}
}

// The healthz document must expose the cumulative validate counters.
func TestHealthzValidateCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		CircuitRef: CircuitRef{Circuit: "c17"},
		Spec:       protest.ValidateSpec{MinPatterns: 1024, MaxPatterns: 1024},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Stats struct {
			Validate ValidateStats `json:"validate"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Stats.Validate.Runs != 1 {
		t.Errorf("healthz validate.runs = %d, want 1", health.Stats.Validate.Runs)
	}
	if health.Stats.Validate.Passed+health.Stats.Validate.FlaggedRuns != 1 {
		t.Errorf("healthz validate outcomes don't sum to runs: %+v", health.Stats.Validate)
	}
}
