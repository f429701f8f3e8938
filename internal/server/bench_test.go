package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServerAnalyzeCoalesce measures N concurrent identical
// /v1/analyze requests, which join one another's in-flight passes.
// The passes/req metric is the dedup's effectiveness: 1.0 means every
// request paid a full pass, smaller values mean requests joined one.
func BenchmarkServerAnalyzeCoalesce(b *testing.B) {
	srv := New(Config{Seed: testSeed})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	data, _ := json.Marshal(AnalyzeRequest{CircuitRef: CircuitRef{Circuit: "add8"}})
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm the Session and compiled artifacts
	passes0 := srv.Stats().AnalyzePasses
	requests0 := srv.Stats().Requests

	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			post()
		}
	})
	b.StopTimer()

	st := srv.Stats()
	if reqs := st.Requests - requests0; reqs > 0 {
		b.ReportMetric(float64(st.AnalyzePasses-passes0)/float64(reqs), "passes/req")
	}
}
