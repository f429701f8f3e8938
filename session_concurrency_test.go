package protest_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"protest"
)

// The concurrency contract of a Session: methods run genuinely
// concurrently (no serializing lock) and every call returns results
// bit-identical to a serial execution.  These tests are meant to run
// under -race; they hammer one shared Session from many goroutines
// across all phases and compare exact values against serial
// references.

// serialRefs computes the serial reference results once.
type serialRefs struct {
	analysisU *protest.Analysis // uniform
	analysisW *protest.Analysis // weighted tuple
	testLen   int64
	opt       *protest.OptimizeResult
	sim       *protest.SimResult
	curve     []protest.CoveragePoint
	bist      *protest.BISTResult
	report    *protest.Report
}

const (
	stressSimPatterns = 512
	stressBISTCycles  = 192
	stressSweeps      = 2
)

func stressTuple(s *protest.Session) []float64 {
	probs := make([]float64, len(s.Circuit().Inputs))
	for i := range probs {
		probs[i] = float64(1+i%14) / 16
	}
	return probs
}

func stressSpec() protest.PipelineSpec {
	return protest.PipelineSpec{
		Optimize:        true,
		OptimizeOptions: protest.OptimizeOptions{MaxSweeps: stressSweeps},
		SimPatterns:     256,
		BIST:            &protest.BISTPlan{Cycles: 128},
	}
}

func computeRefs(t *testing.T, s *protest.Session) *serialRefs {
	t.Helper()
	ctx := context.Background()
	r := &serialRefs{}
	var err error
	if r.analysisU, err = s.Analyze(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if r.analysisW, err = s.Analyze(ctx, stressTuple(s)); err != nil {
		t.Fatal(err)
	}
	if r.testLen, err = s.TestLength(1.0, 0.95); err != nil {
		t.Fatal(err)
	}
	if r.opt, err = s.Optimize(ctx, protest.OptimizeOptions{MaxSweeps: stressSweeps}); err != nil {
		t.Fatal(err)
	}
	if r.sim, err = s.Simulate(ctx, stressSimPatterns); err != nil {
		t.Fatal(err)
	}
	if r.curve, err = s.CoverageCurve(ctx, nil, []int{64, 256}); err != nil {
		t.Fatal(err)
	}
	if r.bist, err = s.RunBIST(ctx, protest.BISTPlan{Cycles: stressBISTCycles}); err != nil {
		t.Fatal(err)
	}
	if r.report, err = s.Run(ctx, stressSpec()); err != nil {
		t.Fatal(err)
	}
	return r
}

func checkAnalysis(t *testing.T, label string, got, want *protest.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Prob, want.Prob) || !reflect.DeepEqual(got.Obs, want.Obs) ||
		!reflect.DeepEqual(got.PinObs, want.PinObs) || !reflect.DeepEqual(got.InputProbs, want.InputProbs) {
		t.Errorf("%s: concurrent analysis differs from serial reference", label)
	}
}

// TestSessionConcurrentBitIdentical drives every Session phase from
// many goroutines at once against one shared Session and requires all
// results to be bit-identical to the serial references.  Run it with
// -race to certify the lock-free Session.
func TestSessionConcurrentBitIdentical(t *testing.T) {
	c, ok := protest.Benchmark("alu")
	if !ok {
		t.Fatal("alu benchmark missing")
	}
	s, err := protest.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	refs := computeRefs(t, s)
	tuple := stressTuple(s)

	const goroutines = 8
	iters := 2
	if testing.Short() {
		iters = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				// Every goroutine exercises a rotating subset of phases so
				// distinct phases overlap in time.
				switch (g + it) % 6 {
				case 0:
					res, err := s.Analyze(ctx, nil)
					if err != nil {
						t.Error(err)
						return
					}
					checkAnalysis(t, "Analyze(uniform)", res, refs.analysisU)
					// The store's uniform analysis must be cloned per caller:
					// writing into the result must not poison later calls.
					res.Prob[0] = -1
				case 1:
					res, err := s.Analyze(ctx, tuple)
					if err != nil {
						t.Error(err)
						return
					}
					checkAnalysis(t, "Analyze(weighted)", res, refs.analysisW)
				case 2:
					n, err := s.TestLength(1.0, 0.95)
					if err != nil {
						t.Error(err)
						return
					}
					if n != refs.testLen {
						t.Errorf("TestLength: got %d, want %d", n, refs.testLen)
					}
					opt, err := s.Optimize(ctx, protest.OptimizeOptions{MaxSweeps: stressSweeps})
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(opt, refs.opt) {
						t.Errorf("Optimize: concurrent result differs from serial reference")
					}
				case 3:
					sim, err := s.Simulate(ctx, stressSimPatterns)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(sim.Detected, refs.sim.Detected) || sim.Applied != refs.sim.Applied {
						t.Errorf("Simulate: concurrent counts differ from serial reference")
					}
				case 4:
					curve, err := s.CoverageCurve(ctx, nil, []int{64, 256})
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(curve, refs.curve) {
						t.Errorf("CoverageCurve: concurrent curve differs from serial reference")
					}
				case 5:
					bist, err := s.RunBIST(ctx, protest.BISTPlan{Cycles: stressBISTCycles})
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(bist, refs.bist) {
						t.Errorf("RunBIST: concurrent result differs from serial reference")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionConcurrentPipelines runs whole pipelines concurrently on
// one Session and requires every report to equal the serial reference.
func TestSessionConcurrentPipelines(t *testing.T) {
	c, ok := protest.Benchmark("c17")
	if !ok {
		t.Fatal("c17 benchmark missing")
	}
	s, err := protest.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := s.Run(ctx, stressSpec())
	if err != nil {
		t.Fatal(err)
	}

	specs := []protest.PipelineSpec{
		stressSpec(),
		stressSpec(),
		stressSpec(),
		stressSpec(),
	}
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec protest.PipelineSpec) {
			defer wg.Done()
			rep, err := s.Run(ctx, spec)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("pipeline %d: concurrent report differs from serial reference", i)
			}
		}(i, spec)
	}
	wg.Wait()
}

// TestSessionsShareArtifacts opens many Sessions on independently
// built, structurally equal circuits and checks they interned onto one
// canonical circuit (the artifact-store sharing contract) and still
// produce identical results.
func TestSessionsShareArtifacts(t *testing.T) {
	open := func() *protest.Session {
		c, ok := protest.Benchmark("alu")
		if !ok {
			t.Fatal("alu benchmark missing")
		}
		s, err := protest.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(), open()
	if s1.Circuit() != s2.Circuit() {
		t.Fatalf("equal circuits were not interned onto one canonical instance")
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]*protest.Analysis, 2)
	for i, s := range []*protest.Session{s1, s2} {
		wg.Add(1)
		go func(i int, s *protest.Session) {
			defer wg.Done()
			res, err := s.Analyze(ctx, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkAnalysis(t, "shared-artifact analyze", results[1], results[0])
}

// coldSeq numbers the fresh circuit names of TestColdSessionConcurrentRuns,
// so that every run of it, -count included, starts on a cold store.
var coldSeq atomic.Int64

// TestColdSessionConcurrentRuns starts eight pipelines at once on one
// Session whose circuit identity no earlier call has interned — alu's
// netlist under a fresh name — across the three fault models and mixed
// (d, e, budget), so they race the artifact store's cold builds of the
// uniform analysis and each model's test-length set.  Every report must
// equal the one the specs give run one after another on another fresh
// identity of the same netlist.
func TestColdSessionConcurrentRuns(t *testing.T) {
	c, ok := protest.Benchmark("alu")
	if !ok {
		t.Fatal("alu benchmark missing")
	}
	src, err := protest.NetlistString(c)
	if err != nil {
		t.Fatal(err)
	}
	specs := []protest.PipelineSpec{
		{Fraction: 1, Confidence: 0.95, MaxSimPatterns: 300},
		{Fraction: 0.9, Confidence: 0.99, SimPatterns: 100},
		{Fraction: 1, Confidence: 0.9, MaxSimPatterns: 300, FaultModel: protest.FaultModelBridging},
		{Fraction: 0.5, Confidence: 0.95, SimPatterns: 200, FaultModel: protest.FaultModelBridging},
		{Fraction: 1, Confidence: 0.95, SimPatterns: 130, FaultModel: protest.FaultModelTransition},
		{Fraction: 0.9, Confidence: 0.9, MaxSimPatterns: 300, FaultModel: protest.FaultModelTransition},
		{Fraction: 0.5, Confidence: 0.9, SimPatterns: 64},
		{Fraction: 0.9, Confidence: 0.99, MaxSimPatterns: 300, FaultModel: protest.FaultModelBridging},
	}
	open := func() *protest.Session {
		fresh, err := protest.ParseNetlistString(src, fmt.Sprintf("alu-cold-%d", coldSeq.Add(1)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := protest.Open(fresh)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	serial := open()
	want := make([]*protest.Report, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = serial.Run(ctx, spec); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}

	cold := open()
	got := make([]*protest.Report, len(specs))
	errs := make([]error, len(specs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec protest.PipelineSpec) {
			defer wg.Done()
			<-start
			got[i], errs[i] = cold.Run(ctx, spec)
		}(i, spec)
	}
	close(start)
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("spec %d: %v", i, errs[i])
		}
		got[i].Circuit = want[i].Circuit // the two identities differ by name only
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("spec %d: concurrent report on a cold Session differs from the serial one", i)
		}
	}
}
