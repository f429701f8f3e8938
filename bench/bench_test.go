package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"protest"
)

func bodies(seqs [clients][]request) []string {
	var out []string
	for _, seq := range seqs {
		for _, q := range seq {
			out = append(out, q.Path+" "+string(q.Body))
		}
	}
	return out
}

func TestSequencesDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := bodies(w.sequences(1, 1, 0))
		b := bodies(w.sequences(1, 1, 0))
		c := bodies(w.sequences(2, 1, 0))
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 generated two different sequences", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same sequence", w.name)
		}
		if len(a) < minSamples {
			t.Errorf("%s: %d requests, want at least %d", w.name, len(a), minSamples)
		}
	}
}

// A whole number of blocks carries the same work for every seed: the
// same requests, up to the seeded values drawn inside a block.
func TestBlocksCarrySameWork(t *testing.T) {
	for _, w := range workloads {
		work := func(seed uint64) []string {
			var out []string
			for c, seq := range w.sequences(seed, 1, 0) {
				for _, q := range seq {
					key := q.Path + " " + q.Circuit + " " + q.Model
					if w.name != "analyze-mixed" {
						key = string(q.Body)
					}
					out = append(out, string(rune('0'+c))+key)
				}
			}
			slices.Sort(out)
			return out
		}
		if !slices.Equal(work(1), work(7)) {
			t.Errorf("%s: seeds 1 and 7 generate different work", w.name)
		}
	}
}

func TestPipelineSharedStream(t *testing.T) {
	sim, _ := lookupWorkload("pipeline-sim")
	sharded, _ := lookupWorkload("pipeline-sharded")
	a, b := sim.sequences(3, 10, 0), sharded.sequences(3, 10, 0)
	for c := range a {
		if len(b[c]) == 0 || len(b[c]) > len(a[c]) || !slices.Equal(bodies([clients][]request{a[c][:len(b[c])]}), bodies([clients][]request{b[c]})) {
			t.Errorf("client %d: pipeline-sharded is not a prefix of pipeline-sim", c)
		}
	}
}

func circuitsOf(seq []request) map[string]int {
	out := map[string]int{}
	for _, q := range seq {
		out[q.Circuit]++
	}
	return out
}

func TestClientCircuitSets(t *testing.T) {
	for _, name := range []string{"pipeline-sim", "pipeline-sharded", "optimize-bist", "validate-mc"} {
		w, _ := lookupWorkload(name)
		seqs := w.sequences(1, 10, 0)
		a, b := circuitsOf(seqs[0]), circuitsOf(seqs[1])
		for c := range a {
			if b[c] > 0 {
				t.Errorf("%s: both clients send %s", name, c)
			}
		}
		if len(a) != 3 || len(b) != 3 {
			t.Errorf("%s: client circuit sets %v and %v, want three each", name, a, b)
		}
	}
	// optimize-bist is balanced: equal request counts, every circuit of
	// a client equally often.
	w, _ := lookupWorkload("optimize-bist")
	seqs := w.sequences(1, 10, 0)
	if len(seqs[0]) != len(seqs[1]) {
		t.Errorf("optimize-bist: clients send %d and %d requests", len(seqs[0]), len(seqs[1]))
	}
	for c, seq := range seqs {
		for circuit, n := range circuitsOf(seq) {
			if n != len(seq)/3 {
				t.Errorf("optimize-bist client %d: %s sent %d of %d times", c, circuit, n, len(seq))
			}
		}
	}
}

func TestWarmupCoversEveryCircuitModel(t *testing.T) {
	for _, w := range workloads {
		seqs := w.sequences(1, 1, 0)
		warm := w.warmups(1, seqs)
		want, got := map[[2]string]bool{}, map[[2]string]int{}
		for _, seq := range seqs {
			for _, q := range seq {
				want[[2]string{q.Circuit, q.Model}] = true
			}
		}
		for _, seq := range warm {
			for _, q := range seq {
				got[[2]string{q.Circuit, q.Model}]++
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: warm-up covers %d of %d (circuit, model) pairs", w.name, len(got), len(want))
		}
		for k, n := range got {
			if n != 1 || !want[k] {
				t.Errorf("%s: warm-up sends %v %d times", w.name, k, n)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if v, _ := percentile(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
	if v, ok := percentile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has fewer than ten beyond it")
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples has fewer than ten beyond it")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, ok := percentile(big, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %v, want NaN", v)
	}
}

func TestLatencySummaries(t *testing.T) {
	if g := geoMean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geometric mean of 1, 4, 16 = %v, want 4", g)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if m := tailMean(xs, 0.1); m != 95.5 {
		t.Errorf("mean of the slowest 10%% of 1..100 = %v, want 95.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "d", Parent: 2, Start: 25, End: 35},
		{Name: "e", Parent: 2, Start: 30, End: 40}, // overlaps d by 5
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 15, 30, 10, 10}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// The Progress stream of a Session.Validate run nests its phases under
// the validate phase and leaves the oracle time before the Monte-Carlo
// run in validate's self time; a pipeline's phases tile the call.
func TestProgressSpans(t *testing.T) {
	tick := func() { time.Sleep(time.Millisecond) }
	names := func(tr *reqTrace) []string {
		var out []string
		for _, s := range tr.spans {
			parent := "-"
			if s.Parent >= 0 {
				parent = tr.spans[s.Parent].Name
			}
			out = append(out, s.Name+"<"+parent)
		}
		return out
	}

	v := newReqTrace(0, time.Now())
	var simStart int64
	v.call("session.validate", func() {
		v.progress(protest.PhaseValidate, 0)
		tick() // BDD oracle
		simStart = v.now()
		v.progress(protest.PhaseSimulate, 0)
		tick()
		v.progress(protest.PhaseSimulate, 1)
		tick() // statistical checks
		v.progress(protest.PhaseValidate, 1)
	})
	if got, want := names(v), []string{"session.validate<-", "validate<session.validate", "simulate<validate"}; !slices.Equal(got, want) {
		t.Fatalf("validate spans %v, want %v", got, want)
	}
	if v.spans[2].Start < simStart {
		t.Errorf("simulate starts %v before its first event: the oracle time belongs to validate", time.Duration(simStart-v.spans[2].Start))
	}

	p := newReqTrace(0, time.Now())
	p.call("session.run", func() {
		tick()
		p.progress(protest.PhaseTestLength, 1)
		tick()
		p.progress(protest.PhaseSimulate, 0)
		p.progress(protest.PhaseSimulate, 0.5)
		tick()
		p.progress(protest.PhaseSimulate, 1)
		p.progress(protest.PhaseSummarize, 1)
	})
	if got, want := names(p), []string{"session.run<-", "testlen<session.run", "simulate<session.run", "summarize<session.run"}; !slices.Equal(got, want) {
		t.Fatalf("pipeline spans %v, want %v", got, want)
	}
	if self := selfTimes(p.spans)[0]; float64(self) > 0.05*float64(p.spans[0].dur()) {
		t.Errorf("pipeline phases leave %v of %v uncovered", time.Duration(self), time.Duration(p.spans[0].dur()))
	}
}

func testConfig(t *testing.T, start startFunc, trace bool) config {
	return config{seed: 1, seconds: 1, trace: trace, setups: 1, perClient: 3, start: start, outDir: t.TempDir(), log: io.Discard}
}

// A smoke run of every workload against an in-process server.New
// fixture: every response checks out and every metric is reported.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		// Tracing the two heavy mixes would double the test's time; the
		// trace path is the same code for every workload.
		trace := w.name != "optimize-bist" && w.name != "validate-mc"
		rep, err := runWorkload(context.Background(), testConfig(t, inProcessFixture(nil), trace), w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Attempted != 2*3 || !rep.correct() {
			t.Errorf("%s: %d attempted, %d failed; checks %q", w.name, rep.Attempted, rep.Failed, rep.Checks)
		}
		for _, name := range e2eOrder {
			// Six requests may finish inside one CPU clock tick.
			if m, ok := rep.E2E[name]; !ok || m.Value < 0 || m.Value == 0 && name != "cpu_ms_per_req" {
				t.Errorf("%s: %s = %+v, want a positive value", w.name, name, m)
			}
		}
		if trace && len(rep.Layers) != len(layerOrder) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(rep.Layers), len(layerOrder))
		}
	}
}

// corruptNth flips one byte in the body of the nth POST response.
func corruptNth(n int64) func(http.Handler) http.Handler {
	var posts atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || posts.Add(1) != n {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			i := bytes.IndexByte(body, '.') + 1 // a digit of some probability
			body[i] ^= 1
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// A corrupted response fails the run: the command prints correct=false
// as its last line and exits non-zero.
func TestCorruptedResponseFailsRun(t *testing.T) {
	w, _ := lookupWorkload("analyze-mixed")
	seqs := w.sequences(1, 0.1, 0)
	warm := w.warmups(1, seqs)
	n := int64(setupRuns*(len(warm[0])+len(warm[1])) + 5) // the fifth request of the window
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "analyze-mixed", "-seed", "1", "-seconds", "0.1",
		"-out", t.TempDir(), "-results", t.TempDir()}
	code := run(context.Background(), args, &stdout, &stderr, inProcessFixture(corruptNth(n)))
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct || res.Failed < 1 {
		t.Errorf("result %+v, want correct=false with a failed request", res)
	}
}

// Requests a client does not send before the deadline still count:
// each is attempted and failed, so the run cannot pass on a prefix of
// its fixed work.
func TestUnsentRequestsFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	const perClient = 5
	var seqs [clients][]request
	for c := range seqs {
		for i := range perClient {
			seqs[c] = append(seqs[c], request{Path: "/v1/analyze", Body: []byte{byte(c), byte(i)}})
		}
	}
	cs := newClients()
	defer closeClients(cs)
	samples, _, _ := drive(context.Background(), cs, srv.URL, seqs, 30*time.Millisecond)
	failed := make([][]bool, clients)
	for c := range samples {
		if len(samples[c]) != perClient {
			t.Fatalf("client %d: %d samples for %d requests", c, len(samples[c]), perClient)
		}
		failed[c] = make([]bool, perClient)
	}
	checkResponses(&report{}, seqs, samples, failed)
	for c := range samples {
		if !samples[c][0].ok() || failed[c][0] {
			t.Errorf("client %d: the first request, sent before the deadline, failed: %+v", c, samples[c][0])
		}
		last := perClient - 1
		if !samples[c][last].unsent() || !failed[c][last] {
			t.Errorf("client %d: the last request, due after the deadline, was not counted as unsent and failed: %+v", c, samples[c][last])
		}
	}
}

// The processes of one fixture never share a port.
func TestFreeAddrsDistinct(t *testing.T) {
	addrs, err := freeAddrs(16)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(addrs)
	if len(slices.Compact(addrs)) != 16 {
		t.Errorf("freeAddrs(16) repeated a port: %v", addrs)
	}
}

// BENCHMARK.json declares workloads the benchmark has, each once, and
// exactly the metrics it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Error("BENCHMARK.json declares no workload")
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil || seen[w.Name] {
			t.Errorf("BENCHMARK.json workload %q: unknown or listed twice", w.Name)
		}
		seen[w.Name] = true
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, e2eOrder) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", names, e2eOrder)
	}
	if len(spec.PerLayer) != len(layerOrder) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, want %d", len(spec.PerLayer), len(layerOrder))
	}
	for i, m := range spec.PerLayer {
		if l := layerOrder[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, want %+v", i, m, l)
		}
	}
}
