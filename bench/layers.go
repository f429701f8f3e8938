package main

import (
	"time"
)

// layerSpec declares one per-layer metric: its unit and which direction
// is better (BENCHMARK.json lists the same).
type layerSpec struct {
	name, unit, better string
}

// layerOrder is every per-layer metric, in print order.
var layerOrder = []layerSpec{
	{"server.self_ms", "ms", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.resp_kb", "KiB", "lower"},
	{"coalesce.batch_mean_size", "count", "higher"},
	{"coalesce.passes_per_req", "ratio", "lower"},
	{"coalesce.batched_requests", "count", "higher"},
	{"coalesce.joins", "count", "higher"},
	{"artifact.resolve_us", "us", "lower"},
	{"artifact.open_ms", "ms", "lower"},
	{"artifact.builds", "count", "lower"},
	{"artifact.hits", "count", "higher"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.analyze_calls", "count", "lower"},
	{"testlen.busy_ms", "ms", "lower"},
	{"faultsim.busy_ms", "ms", "lower"},
	{"faultsim.fault_patterns_per_us", "1/us", "higher"},
	{"optimize.busy_ms", "ms", "lower"},
	{"bist.busy_ms", "ms", "lower"},
	{"bist.cycles_per_us", "1/us", "higher"},
	{"validate.busy_ms", "ms", "lower"},
	{"validate.montecarlo_ms", "ms", "lower"},
	{"validate.oracle_ms", "ms", "lower"},
	{"validate.patterns", "count", "lower"},
	{"shard.simulate_ms", "ms", "lower"},
	{"shard.shards", "count", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.local_fallbacks", "count", "lower"},
	{"trace.replay_s", "s", "lower"},
	{"trace.window_s", "s", "lower"},
	{"trace.phase_cover", "ratio", "higher"},
	{"trace.uncovered_calls", "count", "lower"},
}

// layerMetrics derives the per-layer metrics from the traced replay,
// the served samples, and the /healthz counters: delta over the
// window, total since the fixture started.
func layerMetrics(w *workload, tr *replay, samples [clients][]sample, delta, total counters, window time.Duration) map[string]metric {
	self := selfTimes(tr.spans)
	busy := map[string]float64{} // ms per span name, main pass only
	calls := map[string]int{}
	var openMs, montecarloMs, oracleMs, callMs, callSelfMs float64
	uncovered := 0
	for i, s := range tr.spans {
		ms := float64(s.dur()) / 1e6
		if s.Name == "artifact.open" {
			openMs += ms // cold opens happen in the warm-up pass
		}
		if s.Req < 0 {
			continue
		}
		busy[s.Name] += ms
		calls[s.Name]++
		switch s.Name {
		case "validate":
			oracleMs += float64(self[i]) / 1e6
		case "simulate":
			if tr.spans[s.Parent].Name == "validate" {
				montecarloMs += ms
			}
		case "session.run", "session.validate":
			callMs += ms
			callSelfMs += float64(self[i]) / 1e6
			if float64(self[i]) > 0.05*float64(s.dur()) {
				uncovered++
			}
		}
	}

	var n, respBytes, faultPatterns, bistCycles, validatePatterns int
	var serverSelfMs float64
	for c := range tr.traces {
		for i, t := range tr.traces[c] {
			n++
			respBytes += t.respBytes
			faultPatterns += t.faultPatterns
			bistCycles += t.bistCycles
			validatePatterns += t.validatePatterns
			serverSelfMs += float64(samples[c][i].latency-time.Duration(t.spans[0].dur())) / float64(time.Millisecond)
		}
	}
	mean := func(name string) float64 { return ratio(busy[name], float64(calls[name])) }
	shardMs := 0.0
	if w.sharded {
		shardMs = busy["simulate"]
	}
	cover := 1.0
	if callMs > 0 {
		cover = 1 - callSelfMs/callMs
	}
	vals := map[string]float64{
		"server.self_ms":                 ratio(serverSelfMs, float64(n)),
		"server.decode_us":               1e3 * mean("server.decode"),
		"server.encode_us":               1e3 * mean("server.encode"),
		"server.resp_kb":                 ratio(float64(respBytes)/1024, float64(n)),
		"coalesce.batch_mean_size":       ratio(float64(delta.batchRequests), float64(delta.batchFlushes)),
		"coalesce.passes_per_req":        ratio(float64(delta.analyzePasses), float64(delta.batchRequests)),
		"coalesce.batched_requests":      float64(delta.batchRequests),
		"coalesce.joins":                 float64(delta.joins),
		"artifact.resolve_us":            1e3 * mean("artifact.resolve"),
		"artifact.open_ms":               openMs,
		"artifact.builds":                float64(total.builds),
		"artifact.hits":                  float64(delta.hits),
		"core.analyze_ms":                busy["session.analyze"] + busy["analyze"],
		"core.analyze_calls":             float64(calls["session.analyze"] + calls["analyze"]),
		"testlen.busy_ms":                busy["testlen"],
		"faultsim.busy_ms":               busy["simulate"],
		"faultsim.fault_patterns_per_us": ratio(float64(faultPatterns), 1e3*busy["simulate"]),
		"optimize.busy_ms":               busy["optimize"] + busy["quantize"],
		"bist.busy_ms":                   busy["bist"],
		"bist.cycles_per_us":             ratio(float64(bistCycles), 1e3*busy["bist"]),
		"validate.busy_ms":               busy["session.validate"],
		"validate.montecarlo_ms":         montecarloMs,
		"validate.oracle_ms":             oracleMs,
		"validate.patterns":              float64(validatePatterns),
		"shard.simulate_ms":              shardMs,
		"shard.shards":                   float64(delta.shards),
		"shard.retries":                  float64(delta.retries),
		"shard.local_fallbacks":          float64(delta.fallbacks),
		"trace.replay_s":                 tr.wall.Seconds(),
		"trace.window_s":                 window.Seconds(),
		"trace.phase_cover":              cover,
		"trace.uncovered_calls":          float64(uncovered),
	}
	out := make(map[string]metric, len(layerOrder))
	for _, l := range layerOrder {
		out[l.name] = metric{Value: vals[l.name], Unit: l.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
