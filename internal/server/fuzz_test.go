package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"protest"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/netlist"
)

// FuzzAnalyzeRequest sends any body to POST /v1/analyze.  The answer
// must be 200, 400 or 413, never a 5xx or a panic, and a 200 must
// carry one detection probability in [0,1] per fault of the requested
// model.  Bodies whose inline netlist exceeds 4 KB are skipped, so one
// input cannot take the fuzzer's time.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, body := range fuzzSeeds(f, func(ref CircuitRef, model protest.FaultModel, inputs int) []any {
		biased := make([]float64, inputs)
		for i := range biased {
			biased[i] = 0.9
		}
		var reqs []any
		for _, probs := range [][]float64{nil, biased, {0.5}} {
			reqs = append(reqs, AnalyzeRequest{CircuitRef: ref, FaultModel: string(model), InputProbs: probs})
		}
		return reqs
	}) {
		f.Add(body)
	}
	srv := New(Config{Seed: testSeed, MaxBodyBytes: 1 << 16})
	defer srv.Close()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req AnalyzeRequest
		_ = json.Unmarshal(body, &req) // the handler answers any error
		if len(req.Netlist) > 4096 {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("%s: status %d (%s)", body, rec.Code, rec.Body)
		}
		// A 200 came from a body the strict decoder took, so req is
		// what the server saw.
		c, err := srv.resolveCircuit(&req.CircuitRef)
		if err != nil {
			t.Fatalf("%s: answered 200, but the circuit does not resolve: %v", body, err)
		}
		m, err := protest.ParseFaultModel(req.FaultModel)
		if err != nil {
			t.Fatalf("%s: answered 200 for fault model %q: %v", body, req.FaultModel, err)
		}
		var resp AnalyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: undecodable 200 body: %v", body, err)
		}
		if want := len(protest.FaultsFor(c, m)); len(resp.Faults) != want {
			t.Fatalf("%s: %d faults, want %d", body, len(resp.Faults), want)
		}
		for _, fr := range resp.Faults {
			if !(fr.DetectProb >= 0 && fr.DetectProb <= 1) {
				t.Fatalf("%s: fault %s detect prob %v outside [0,1]", body, fr.Name, fr.DetectProb)
			}
		}
	})
}

// FuzzPipelineSpec runs any body through /v1/pipeline's checks only:
// decoding, circuit resolution and the coalescing key, not a run.  A
// body that fails them must be answered 400 (413 when over the limit)
// before admission, and every spec they accept must have the key of
// its own Normalized form, so a spec and its normal form coalesce.
func FuzzPipelineSpec(f *testing.F) {
	for _, body := range fuzzSeeds(f, func(ref CircuitRef, model protest.FaultModel, _ int) []any {
		return []any{
			PipelineRequest{CircuitRef: ref, Spec: protest.PipelineSpec{FaultModel: model}},
			PipelineRequest{CircuitRef: ref, Spec: protest.PipelineSpec{
				FaultModel: model, Fraction: 0.9, Confidence: 0.99, Optimize: true, QuantizeGrid: -1,
				SimPatterns: 300, SimWidth: 1, BIST: &protest.BISTPlan{Cycles: 100, MISRWidth: 16},
			}},
		}
	}) {
		f.Add(body)
	}
	f.Add([]byte(`{"circuit":"c17","spec":{"fraction":2}}`))
	f.Add([]byte(`{"circuit":"c17","spec":{"bist":{"cycles":-5}}}`))
	f.Add([]byte(`{"circuit":"c17","spec":{"sim_width":4,"optimize":true,"sweeps":-1}}`))
	srv := New(Config{Seed: testSeed, MaxBodyBytes: 1 << 16})
	defer srv.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		_, spec, key, ok := srv.decodePipeline(rec, httptest.NewRequest(http.MethodPost, "/v1/pipeline", bytes.NewReader(body)))
		if st := srv.Stats(); st.InFlight != 0 || st.Queued != 0 {
			t.Fatalf("%s: the checks took an admission slot: %+v", body, st)
		}
		if !ok {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: refused with status %d (%s)", body, rec.Code, rec.Body)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%s: accepted, but answered %d (%s)", body, rec.Code, rec.Body)
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: accepted a spec whose Normalize fails: %v", body, err)
		}
		normKey, err := pipelineSpecKey(norm)
		if err != nil {
			t.Fatalf("%s: the normal form is refused: %v", body, err)
		}
		if normKey != key {
			t.Fatalf("%s: key %s, but its normal form's key is %s", body, key, normKey)
		}
	})
}

// fuzzSeeds renders the shared seed bodies of the server's fuzz
// targets: the requests mk returns for c17 and alu, by name and as
// inline netlists, under every fault model and the empty one, plus
// bodies with unknown fields.  mk receives the circuit's input count.
func fuzzSeeds(f *testing.F, mk func(ref CircuitRef, model protest.FaultModel, inputs int) []any) [][]byte {
	var seeds [][]byte
	add := func(v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.ALU74181()} {
		src, err := netlist.String(c)
		if err != nil {
			f.Fatal(err)
		}
		for _, ref := range []CircuitRef{{Circuit: c.Name}, {Netlist: src, Name: c.Name}} {
			for _, model := range append(protest.FaultModels(), "") {
				for _, req := range mk(ref, model, len(c.Inputs)) {
					add(req)
				}
			}
		}
	}
	seeds = append(seeds,
		[]byte(`{"circuit":"c17","input_prob":[0.5]}`),
		[]byte(`{"circuit":"c17","workers":2}`),
		[]byte(`{"circuit":"c17","spec":{"sim_engine":1}}`),
		[]byte(`{"circuit":"c17","fault_model":"wombat"}`),
	)
	return seeds
}
