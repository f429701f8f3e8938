package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"protest"
)

// setupRuns is how many times a run sets up its fixture (process start,
// /healthz ready, warm-up).  setup_s reports their median, because one
// set-up of a pipeline workload lasts 0.1 to 0.3 s, and the box's speed
// swings by a fifth from one second to the next; the last fixture
// serves the measured window.
const setupRuns = 9

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	setups  int // setupRuns; the smoke tests set up once
	// perClient > 0 fixes each client's request count (smoke tests).
	perClient int
	start     startFunc
	outDir    string // trace files
	log       io.Writer
}

// metric is one reported number.  Samples is the count a percentile
// was taken over, 0 for other metrics.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Checks    []string // human-readable check outcomes
	E2E       map[string]metric
	Layers    map[string]metric // only when tracing
	Cmdlines  []string
	Drained   [clients]float64 // seconds until each client drained
	// Percentiles holds latency_p50_ms and, where at least ten samples
	// lie beyond them, latency_p90_ms and latency_p99_ms.  They are
	// printed and recorded but not declared in BENCHMARK.json: on a
	// mix whose latencies form clusters, a percentile sitting between
	// two clusters jumps when the box slows by a few percent.
	Percentiles map[string]metric
}

func (r *report) correct() bool { return r.Failed == 0 }

// e2eOrder and layerOrder fix the order metrics are printed in; they
// are the names BENCHMARK.json declares.
var e2eOrder = []string{"throughput_rps", "latency_gmean_ms", "latency_tail10_ms", "setup_s", "peak_rss_mb", "cpu_ms_per_req"}

// percentileOrder lists the printed latency percentiles.
var percentileOrder = []struct {
	name string
	q    float64
}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}}

// refCount is how many distinct requests of each run are checked
// against an in-process reference.
const refCount = 16

// runWorkload sets up the fixture, drives the workload's fixed request
// sequences through it, checks every response, and with cfg.trace
// replays the same sequences in-process for the per-layer metrics.
func runWorkload(ctx context.Context, cfg config, w *workload) (*report, error) {
	seqs := w.sequences(cfg.seed, cfg.seconds, cfg.perClient)
	warm := w.warmups(cfg.seed, seqs)

	var f *fixture
	var cs [clients]*http.Client
	setups := make([]float64, 0, cfg.setups)
	for i := range max(cfg.setups, 1) {
		if f != nil {
			closeClients(cs)
			if err := f.stop(); err != nil {
				return nil, fmt.Errorf("stop fixture: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if f, err = cfg.start(ctx, w.sharded); err != nil {
			return nil, fmt.Errorf("start fixture: %w", err)
		}
		cs = newClients()
		if err := warmUp(ctx, cs, f.url, warm); err != nil {
			closeClients(cs)
			f.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(cfg.log, "%s: setup %d/%d %.3fs\n", w.name, i+1, max(cfg.setups, 1), setups[i])
	}
	fixtureUp := true
	defer func() {
		if fixtureUp {
			closeClients(cs)
			f.stop()
		}
	}()

	before, err := readCounters(ctx, f)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuMillis(f.pids)
	if err != nil {
		return nil, err
	}
	// Twice the sized window plus 30 s keeps a 60 s run, with its
	// set-ups and checks, within three minutes.
	deadline := time.Duration(2*cfg.seconds*float64(time.Second)) + 30*time.Second
	samples, drained, window := drive(ctx, cs, f.url, seqs, deadline)
	cpu1, err := cpuMillis(f.pids)
	if err != nil {
		return nil, err
	}
	after, err := readCounters(ctx, f)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(f.pids)
	if err != nil {
		return nil, err
	}

	rep := &report{Workload: w.name, Cmdlines: f.cmdlines, E2E: map[string]metric{}, Percentiles: map[string]metric{}}
	var lat []float64
	completed, unsent := 0, 0
	for c := range samples {
		rep.Drained[c] = drained[c].Seconds()
		rep.Attempted += len(samples[c])
		for _, s := range samples[c] {
			if s.unsent() {
				unsent++
				continue
			}
			lat = append(lat, float64(s.latency)/float64(time.Millisecond))
			if s.ok() {
				completed++
			}
		}
	}
	rep.Checks = append(rep.Checks, fmt.Sprintf("deadline: %d of %d requests not sent within %v", unsent, rep.Attempted, deadline))
	setup, _ := percentile(setups, 0.5)
	rep.E2E["throughput_rps"] = metric{Value: float64(completed) / window.Seconds(), Unit: "1/s"}
	rep.E2E["latency_gmean_ms"] = metric{Value: geoMean(lat), Unit: "ms", Samples: len(lat)}
	rep.E2E["latency_tail10_ms"] = metric{Value: tailMean(lat, 0.1), Unit: "ms", Samples: len(lat)}
	rep.E2E["setup_s"] = metric{Value: setup, Unit: "s", Samples: len(setups)}
	rep.E2E["peak_rss_mb"] = metric{Value: rss, Unit: "MiB"}
	rep.E2E["cpu_ms_per_req"] = metric{Value: (cpu1 - cpu0) / float64(max(rep.Attempted, 1)), Unit: "ms"}
	for _, p := range percentileOrder {
		if v, ok := percentile(lat, p.q); ok || p.q == 0.5 {
			rep.Percentiles[p.name] = metric{Value: v, Unit: "ms", Samples: len(lat)}
		}
	}

	failed := make([][]bool, clients)
	for c := range samples {
		failed[c] = make([]bool, len(samples[c]))
	}
	checkResponses(rep, seqs, samples, failed)

	// The traced replay runs before the reference check so that its
	// Sessions open against this process's cold artifact store, as the
	// fixture's did during warm-up.
	if cfg.trace {
		var pool *protest.ShardPool
		if w.sharded {
			pool = protest.NewShardPool(protest.ShardPoolConfig{Workers: []string{f.worker}, Seed: 1})
			defer pool.Close()
		}
		tr := replayAll(ctx, rep, newReplayer(pool), warm, seqs, samples, failed)
		rep.Layers = layerMetrics(w, tr, samples, after.sub(before), after, window)
		rep.Checks = append(rep.Checks, fmt.Sprintf("trace: replayed %d requests in %.3fs (untraced window %.3fs)",
			rep.Attempted, tr.wall.Seconds(), window.Seconds()))
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-s%d.json", w.name, cfg.seed))
		if err := writeTrace(path, w.name, cfg.seed, tr.spans); err != nil {
			return nil, err
		}
		rep.Checks = append(rep.Checks, "trace: wrote "+path)
	}
	checkReferences(ctx, rep, newReplayer(nil), seqs, samples, failed)

	for c := range failed {
		for _, bad := range failed[c] {
			if bad {
				rep.Failed++
			}
		}
	}
	fixtureUp = false
	closeClients(cs)
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stop fixture: %w", err)
	}
	return rep, nil
}

// checkResponses marks failed every request that did not return a 200,
// that got different bytes than an earlier request with the same body,
// or whose validate report flagged.
func checkResponses(rep *report, seqs [clients][]request, samples [clients][]sample, failed [][]bool) {
	first := map[uint64]uint64{}
	var errs, mismatches, flagged, validated int
	for c := range samples {
		for i, s := range samples[c] {
			if !s.ok() {
				failed[c][i] = true
				if errs == 0 {
					rep.Checks = append(rep.Checks, fmt.Sprintf("first error: status %d %v %.200s", s.status, s.err, s.body))
				}
				errs++
				continue
			}
			key := hashBytes(seqs[c][i].Body)
			if h, ok := first[key]; !ok {
				first[key] = s.hash
			} else if h != s.hash {
				failed[c][i] = true
				mismatches++
			}
			if seqs[c][i].Path == "/v1/validate" {
				validated++
				var v struct {
					Pass  bool              `json:"pass"`
					Flags []json.RawMessage `json:"flags"`
				}
				if err := json.Unmarshal(s.body, &v); err != nil || !v.Pass || len(v.Flags) > 0 {
					failed[c][i] = true
					flagged++
				}
			}
		}
	}
	rep.Checks = append(rep.Checks,
		fmt.Sprintf("responses: %d errors; %d distinct bodies, %d responses differing from an identical earlier request", errs, len(first), mismatches))
	if validated > 0 {
		rep.Checks = append(rep.Checks, fmt.Sprintf("validate: %d of %d reports flagged", flagged, validated))
	}
}

// checkReferences recomputes the first refCount distinct requests
// (in send order, alternating clients) in-process on local unsharded
// Sessions and marks failed every request whose response differs.
func checkReferences(ctx context.Context, rep *report, r *replayer, seqs [clients][]request, samples [clients][]sample, failed [][]bool) {
	var picked []request
	seen := map[uint64]bool{}
	for i := 0; len(picked) < refCount; i++ {
		more := false
		for c := range samples {
			if i >= len(samples[c]) {
				continue
			}
			more = true
			if k := hashBytes(seqs[c][i].Body); !seen[k] && len(picked) < refCount {
				seen[k] = true
				picked = append(picked, seqs[c][i])
			}
		}
		if !more {
			break
		}
	}
	want := make([]uint64, len(picked))
	errs := make([]error, len(picked))
	eachClient(func(g int) {
		for i := g; i < len(picked); i += clients {
			var body []byte
			body, errs[i] = r.do(ctx, newReqTrace(i, time.Now()), picked[i])
			want[i] = hashBytes(body)
		}
	})
	ref := map[uint64]uint64{}
	for i, q := range picked {
		if errs[i] == nil {
			ref[hashBytes(q.Body)] = want[i]
		} else {
			rep.Checks = append(rep.Checks, fmt.Sprintf("reference error: %v", errs[i]))
			// A request the reference cannot compute yet was served: every
			// copy of it is a mismatch.
			ref[hashBytes(q.Body)] = 0
		}
	}
	mismatches := 0
	for c := range samples {
		for i, s := range samples[c] {
			if h, ok := ref[hashBytes(seqs[c][i].Body)]; ok && s.ok() && s.hash != h {
				failed[c][i] = true
				mismatches++
			}
		}
	}
	rep.Checks = append(rep.Checks, fmt.Sprintf("reference: %d distinct requests recomputed in-process, %d responses differ", len(picked), mismatches))
}

// eachClient runs fn for every client index on its own goroutine and
// waits for all of them.
func eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// replay is the outcome of the traced in-process pass.
type replay struct {
	mu     sync.Mutex
	spans  []span
	traces [clients][]*reqTrace // main pass, index-aligned with samples
	wall   time.Duration        // main pass wall time
}

// replayAll replays the warm-up pass and then every sent request, each
// client's sequence on its own goroutine, and marks failed every
// request whose replayed response differs from the one served.
// Request ids interleave the clients; warm-up requests get negative
// ids.
func replayAll(ctx context.Context, rep *report, r *replayer, warm, seqs [clients][]request, samples [clients][]sample, failed [][]bool) *replay {
	epoch := time.Now()
	out := &replay{}
	eachClient(func(c int) {
		for i, q := range warm[c] {
			t := newReqTrace(-(1 + i*clients + c), epoch)
			r.do(ctx, t, q) // the served warm-up already succeeded
			out.add(t)
		}
	})
	var mismatches [clients]int
	var firstErr [clients]error
	t0 := time.Now()
	eachClient(func(c int) {
		out.traces[c] = make([]*reqTrace, len(samples[c]))
		for i := range samples[c] {
			t := newReqTrace(i*clients+c, epoch)
			body, err := r.do(ctx, t, seqs[c][i])
			out.traces[c][i] = t
			if err != nil || hashBytes(body) != samples[c][i].hash {
				failed[c][i] = true
				mismatches[c]++
				if firstErr[c] == nil {
					firstErr[c] = err
				}
			}
		}
	})
	out.wall = time.Since(t0)
	for c := range out.traces {
		for _, t := range out.traces[c] {
			out.add(t)
		}
	}
	msg := fmt.Sprintf("trace: %d replayed responses differ from the served ones", mismatches[0]+mismatches[1])
	if err := errors.Join(firstErr[:]...); err != nil {
		msg += fmt.Sprintf(" (first replay error: %v)", err)
	}
	rep.Checks = append(rep.Checks, msg)
	return out
}

// add appends a request's spans, rebasing their parent indexes.
func (r *replay) add(t *reqTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
