package protest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"protest/internal/core"
)

// The one-call pipeline must reproduce the paper workflow on the ALU:
// analyze, size the test, optimize, quantize, and validate both plans
// by fault simulation.
func TestSessionRunPipelineALU(t *testing.T) {
	c, _ := Benchmark("alu")
	s, err := Open(c, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), PipelineSpec{
		Confidence:      0.95,
		Optimize:        true,
		OptimizeOptions: OptimizeOptions{MaxSweeps: 2},
		SimPatterns:     2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Circuit != c.Name || rep.Faults != len(s.Faults()) {
		t.Errorf("report header %q/%d", rep.Circuit, rep.Faults)
	}
	if rep.Uniform == nil || rep.Uniform.Simulated == nil {
		t.Fatal("uniform plan incomplete")
	}
	if rep.Uniform.TestLength <= 0 {
		t.Errorf("uniform test length %d", rep.Uniform.TestLength)
	}
	if rep.Uniform.Simulated.Coverage < 0.95 {
		t.Errorf("ALU uniform simulated coverage %.3f", rep.Uniform.Simulated.Coverage)
	}
	// Estimated vs simulated must correlate strongly on the ALU
	// (Table 1 reports C0 ~ 0.95).
	if corr := rep.Uniform.Simulated.Summary.Corr; corr < 0.8 {
		t.Errorf("estimated/simulated correlation %.3f", corr)
	}
	if rep.Optimized == nil || rep.Optimized.Simulated == nil {
		t.Fatal("optimized plan incomplete")
	}
	if len(rep.Optimized.InputProbs) != len(c.Inputs) {
		t.Errorf("optimized tuple has %d entries", len(rep.Optimized.InputProbs))
	}
	// The tuple is quantized onto the 1/16 lattice by default.
	for _, p := range rep.Optimized.InputProbs {
		k := p * 16
		if k != float64(int(k+0.5)) && k != float64(int(k)) {
			t.Errorf("weight %v off the 1/16 grid", p)
		}
	}
	// The report must be serializable.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Uniform.TestLength != rep.Uniform.TestLength {
		t.Error("report did not round-trip through JSON")
	}
}

// On COMP the uniform test length is astronomical (~5·10^8) and the
// optimized one must be several orders of magnitude shorter — the
// paper's headline result.
func TestSessionRunPipelineComp(t *testing.T) {
	if testing.Short() {
		t.Skip("COMP optimization in -short mode")
	}
	c, _ := Benchmark("comp")
	s, err := Open(c, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), PipelineSpec{
		Confidence:      0.95,
		Optimize:        true,
		OptimizeOptions: OptimizeOptions{MaxSweeps: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uniform.TestLength > 0 && rep.Uniform.TestLength < 1_000_000 {
		t.Errorf("COMP uniform test length %d is implausibly small", rep.Uniform.TestLength)
	}
	if rep.Optimized == nil || rep.Optimized.TestLength <= 0 {
		t.Fatal("optimized plan missing or unreachable")
	}
	if rep.Uniform.TestLength > 0 && rep.Optimized.TestLength*100 > rep.Uniform.TestLength {
		t.Errorf("optimization only improved N from %d to %d",
			rep.Uniform.TestLength, rep.Optimized.TestLength)
	}
	if rep.Optimized.Simulated.Coverage < rep.Uniform.Simulated.Coverage {
		t.Errorf("optimized coverage %.3f below uniform %.3f",
			rep.Optimized.Simulated.Coverage, rep.Uniform.Simulated.Coverage)
	}
}

// Cancelling mid-Optimize must abort promptly with ErrCanceled and
// leave the Session fully usable.
func TestSessionCancelOptimize(t *testing.T) {
	c, _ := Benchmark("alu")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	_, err = s.Optimize(ctx, OptimizeOptions{
		MaxSweeps: 8,
		OnImprove: func(sweep, input int, obj float64) {
			evals++
			cancel() // cancel as soon as the climb is under way
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cancellation should also match context.Canceled")
	}
	if evals == 0 {
		t.Error("climb never ran before cancellation")
	}
	// The Session must stay consistent: a fresh analysis and a fresh
	// optimization both succeed.
	if _, err := s.Analyze(context.Background(), nil); err != nil {
		t.Fatalf("Session unusable after cancellation: %v", err)
	}
	if _, err := s.Optimize(context.Background(), OptimizeOptions{MaxSweeps: 1}); err != nil {
		t.Fatalf("re-Optimize after cancellation: %v", err)
	}
}

// Cancelling mid-Simulate must abort between 64-pattern blocks with
// ErrCanceled.
func TestSessionCancelSimulate(t *testing.T) {
	c, _ := Benchmark("alu")
	ctx, cancel := context.WithCancel(context.Background())
	s, err := Open(c, WithProgress(func(ph Phase, frac float64) {
		if ph == PhaseSimulate && frac > 0 {
			cancel() // first block done: abort
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate(ctx, 1<<20)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res != nil {
		t.Error("cancelled simulation must not return a partial result")
	}
	// Still usable afterwards.
	if _, err := s.Simulate(context.Background(), 256); err != nil {
		t.Fatalf("Session unusable after cancellation: %v", err)
	}
}

// Cancelling the one-call pipeline mid-flight returns ErrCanceled.
func TestSessionCancelPipeline(t *testing.T) {
	c, _ := Benchmark("alu")
	ctx, cancel := context.WithCancel(context.Background())
	s, err := Open(c, WithProgress(func(ph Phase, frac float64) {
		if ph == PhaseOptimize {
			cancel() // abort once the optimize phase starts
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(ctx, PipelineSpec{Optimize: true, SimPatterns: 256})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The pipeline must still run to completion afterwards.
	rep, err := s.Run(context.Background(), PipelineSpec{SimPatterns: 256})
	if err != nil || rep.Uniform == nil {
		t.Fatalf("pipeline unusable after cancellation: %v", err)
	}
}

// The typed sentinels must surface from the natural misuse paths.
func TestSessionSentinelErrors(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(context.Background(), []float64{0.5}); !errors.Is(err, ErrBadProbs) {
		t.Errorf("short probability vector: want ErrBadProbs, got %v", err)
	}
	if _, err := s.Analyze(context.Background(), []float64{0.5, 0.5, 0.5, 0.5, 1.5}); !errors.Is(err, ErrBadProbs) {
		t.Errorf("out-of-range probability: want ErrBadProbs, got %v", err)
	}
	if _, err := s.SimulateWeighted(context.Background(), []float64{2, 0, 0, 0, 0}, 64); !errors.Is(err, ErrBadProbs) {
		t.Errorf("bad generator probabilities: want ErrBadProbs, got %v", err)
	}
	if _, err := Open(nil); err == nil {
		t.Error("Open(nil) must fail")
	}
	if _, err := s.Run(context.Background(), PipelineSpec{Confidence: 9.5}); err == nil {
		t.Error("Run with confidence 9.5 must fail, not silently default")
	}
	if _, err := s.Run(context.Background(), PipelineSpec{Fraction: 1.5}); err == nil {
		t.Error("Run with fraction 1.5 must fail, not silently default")
	}
}

// ErrBadSpec's own text names no phase; each phase names itself.  The
// message of a zero pattern count, which protest fsim -count 0 prints,
// used to read "simulate: validate: bad spec: ...".
func TestBadSpecMessageNamesItsPhase(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, simErr := s.Simulate(ctx, 0)
	_, curveErr := s.CoverageCurve(ctx, nil, []int{-5})
	_, valErr := s.Validate(ctx, ValidateSpec{SimWidth: 3})
	_, valErr4 := s.Validate(ctx, ValidateSpec{SimWidth: 4})
	_, runErr := s.Run(ctx, PipelineSpec{BIST: &BISTPlan{Cycles: -1}})
	for _, tc := range []struct {
		err  error
		want string
	}{
		{simErr, "simulate: bad spec: 0 patterns, want at least 1"},
		{curveErr, "coverage curve: bad spec: checkpoint -5 is negative"},
		{valErr, "validate: bad spec: widesim: unsupported width 3 (want 0, 1 or 8)"},
		{valErr4, "validate: bad spec: widesim: unsupported width 4 (want 0, 1 or 8)"},
		{runErr, "pipeline: bad spec: -1 BIST cycles, want at least 0 (0 = 1024)"},
	} {
		if !errors.Is(tc.err, ErrBadSpec) || tc.err.Error() != tc.want {
			t.Errorf("error %v, want ErrBadSpec reading %q", tc.err, tc.want)
		}
	}
}

// A pattern count below 1 and a negative coverage checkpoint are
// rejected as ErrBadSpec before anything is simulated, by every engine
// and fault model and by a sharded Session, which sends no shard.
func TestSimulateRejectsBadCounts(t *testing.T) {
	c, _ := Benchmark("c17")
	ctx := context.Background()
	pool := inProcessPool(t, "w")
	for name, opts := range map[string][]Option{
		"ffr":        nil,
		"naive":      {WithSimEngine(SimEngineNaive)},
		"transition": {WithFaultModel(FaultModelTransition)},
		"sharded":    {WithShardPool(pool)},
	} {
		s, err := Open(c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, -3} {
			if _, err := s.Simulate(ctx, n); !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: Simulate(%d) = %v, want ErrBadSpec", name, n, err)
			}
			if _, err := s.SimulateWeighted(ctx, nil, n); !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: SimulateWeighted(%d) = %v, want ErrBadSpec", name, n, err)
			}
		}
		if _, err := s.CoverageCurve(ctx, nil, []int{-5, 10}); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: CoverageCurve(-5, 10) = %v, want ErrBadSpec", name, err)
		}
	}
	if st := pool.Stats(); st.Runs != 0 {
		t.Errorf("sharded Session ran %d measurements on rejected counts", st.Runs)
	}
}

// Progress callbacks must see every pipeline phase in order.
func TestSessionProgressPhases(t *testing.T) {
	c, _ := Benchmark("c17")
	var phases []Phase
	s, err := Open(c, WithProgress(func(ph Phase, frac float64) {
		if len(phases) == 0 || phases[len(phases)-1] != ph {
			phases = append(phases, ph)
		}
		if frac < 0 || frac > 1 {
			t.Errorf("phase %s fraction %v out of [0,1]", ph, frac)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), PipelineSpec{Optimize: true, SimPatterns: 128}); err != nil {
		t.Fatal(err)
	}
	want := map[Phase]bool{}
	for _, ph := range phases {
		want[ph] = true
	}
	for _, ph := range []Phase{PhaseAnalyze, PhaseTestLength, PhaseOptimize, PhaseQuantize, PhaseSimulate, PhaseSummarize} {
		if !want[ph] {
			t.Errorf("phase %s never reported (saw %v)", ph, phases)
		}
	}
}

// BIST rides along in the pipeline when requested.
func TestSessionRunWithBIST(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), PipelineSpec{
		SimPatterns: 256,
		BIST:        &BISTPlan{Cycles: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BIST == nil || rep.BIST.Coverage < 0.99 {
		t.Fatalf("BIST report %+v", rep.BIST)
	}
}

// Mutating an Analysis returned for the uniform tuple must not
// corrupt the uniform analysis cached in the artifact store.
func TestSessionAnalyzeCacheIsolation(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.TestLength(1.0, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Prob {
		res.Prob[i] = 0
	}
	for i := range res.Obs {
		res.Obs[i] = 0
	}
	after, err := s.TestLength(1.0, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("caller mutation leaked into the cache: TestLength %d -> %d", before, after)
	}
}

// TestLength must agree with a direct analysis.
func TestSessionTestLength(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.TestLength(1.0, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(c, UniformProbs(c), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RequiredPatterns(res.DetectProbs(Faults(c)), 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("Session.TestLength %d, direct analysis %d", n, want)
	}
}

// The uniform analysis lives in the artifact store, not in a Session:
// the first Session on a circuit reports PhaseAnalyze 0 and 1 while it
// computes the analysis, and a second Session on the same circuit
// finds it warm and reports none.
func TestWarmStoreSkipsAnalyzePhase(t *testing.T) {
	c17, _ := Benchmark("c17")
	src, err := NetlistString(c17)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseNetlistString(src, fmt.Sprintf("c17-warm-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	analyzeEvents := func() []float64 {
		var fracs []float64
		s, err := Open(c, WithProgress(func(ph Phase, frac float64) {
			if ph == PhaseAnalyze {
				fracs = append(fracs, frac)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), PipelineSpec{SimPatterns: 64}); err != nil {
			t.Fatal(err)
		}
		return fracs
	}
	if got := analyzeEvents(); !reflect.DeepEqual(got, []float64{0, 1}) {
		t.Fatalf("first Session on a cold circuit reported PhaseAnalyze %v, want [0 1]", got)
	}
	if got := analyzeEvents(); got != nil {
		t.Fatalf("second Session on a warm circuit reported PhaseAnalyze %v, want none", got)
	}
}

// TestSessionSimEngineIdentity opens the same circuit under both
// fault-simulation engines and requires identical measurements,
// curves and BIST results through the Session API.
func TestSessionSimEngineIdentity(t *testing.T) {
	c, ok := Benchmark("alu")
	if !ok {
		t.Fatal("alu benchmark missing")
	}
	ffr, err := Open(c, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Open(c, WithSeed(3), WithSimEngine(SimEngineNaive))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rf, err := ffr.Simulate(ctx, 777)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := naive.Simulate(ctx, 777)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rf.Detected {
		if rf.Detected[i] != rn.Detected[i] {
			t.Fatalf("fault %d: FFR detected %d != naive %d", i, rf.Detected[i], rn.Detected[i])
		}
	}

	cps := []int{10, 70, 200}
	cf, err := ffr.CoverageCurve(ctx, nil, cps)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := naive.CoverageCurve(ctx, nil, cps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cf {
		if cf[i] != cn[i] {
			t.Fatalf("curve point %d: FFR %+v != naive %+v", i, cf[i], cn[i])
		}
	}

	bf, err := ffr.RunBIST(ctx, BISTPlan{Cycles: 200})
	if err != nil {
		t.Fatal(err)
	}
	bn, err := naive.RunBIST(ctx, BISTPlan{Cycles: 200})
	if err != nil {
		t.Fatal(err)
	}
	if *bf != *bn {
		t.Fatalf("BIST: FFR %+v != naive %+v", bf, bn)
	}
}
