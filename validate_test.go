package protest

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestValidateRegistrySweep is the in-process version of the CI
// acceptance gate: every registry circuit must validate with zero
// flagged faults at the default ε = 0.05, and circuits whose BDDs blow
// the node budget must carry recorded skip reasons, never a silent
// pass of the exact checks.
func TestValidateRegistrySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry sweep in -short mode")
	}
	for _, name := range BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, _ := Benchmark(name)
			s, err := Open(c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Validate(context.Background(), ValidateSpec{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: faults=%d patterns=%d (required %d) exact=%v checks=%d vsEmp=%v skips=%d",
				name, rep.Faults, rep.Patterns, rep.RequiredPatterns, rep.HasExact, rep.Checks, rep.VsEmpirical, len(rep.Skips))
			if !rep.Pass {
				for _, f := range rep.Flags {
					t.Errorf("flag: %s/%s [%s]: %s", f.Circuit, f.Fault, f.Kind, f.Detail)
				}
			}
			if rep.EnvelopeSource != "calibrated" {
				t.Errorf("envelope source = %q — every registry circuit must have a calibrated band", rep.EnvelopeSource)
			}
			if !rep.HasExact {
				if len(rep.Skips) == 0 {
					t.Error("no exact oracle and no recorded skip — budget skips must be reported")
				}
				for _, sk := range rep.Skips {
					if strings.HasPrefix(sk.Stage, "bdd") && !strings.Contains(sk.Reason, "budget") {
						t.Errorf("bdd skip without a budget reason: %+v", sk)
					}
				}
			}
		})
	}
}

// TestValidatePerturbationHook proves the acceptance-criterion
// sensitivity property end to end through the Session layer: an
// injected analytic bias must turn a passing circuit into a flagged
// one.
func TestValidatePerturbationHook(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.Validate(context.Background(), ValidateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Pass {
		t.Fatalf("clean run must pass, got %+v", clean.Flags)
	}
	spec := ValidateSpec{perturb: func(a []float64) {
		for i := range a {
			a[i] += 0.05
		}
	}}
	biased, err := s.Validate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if biased.Pass {
		t.Fatal("a +0.05 analytic bias must be flagged")
	}
}

// TestValidateDeterministic: the report is a pure function of the
// circuit, spec and Session seed — the property that makes the CI
// sweep a stable gate rather than a statistical flake.  A per-call
// fault model gives the report of a Session opened on that model.
func TestValidateDeterministic(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Validate(context.Background(), ValidateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Validate(context.Background(), ValidateSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across identical runs:\n%+v\n%+v", a, b)
	}
	for _, m := range []FaultModel{FaultModelBridging, FaultModelTransition} {
		got, err := s.Validate(context.Background(), ValidateSpec{FaultModel: m})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := Open(c, WithFaultModel(m))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sm.Validate(context.Background(), ValidateSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-call model report differs from a %s Session's:\n%+v\n%+v", m, m, got, want)
		}
	}
}

func TestValidateCancel(t *testing.T) {
	c, _ := Benchmark("alu")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Validate(ctx, ValidateSpec{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancelled Validate returned %v, want ErrCanceled", err)
	}
}

func TestValidateBadSpec(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(context.Background(), ValidateSpec{Epsilon: 2}); err == nil {
		t.Error("epsilon out of range must be rejected")
	}
	if _, err := s.Validate(context.Background(), ValidateSpec{InputProbs: []float64{0.5}}); err == nil {
		t.Error("wrong-arity input probabilities must be rejected")
	}
}

// An unsupported width is a bad spec, rejected before any phase runs:
// the progress callback sees nothing.  A width of 3 used to fail only
// after the analysis and the BDD oracle.
func TestValidateBadExecutionSpec(t *testing.T) {
	c, _ := Benchmark("c1355")
	var phases []Phase
	s, err := Open(c, WithProgress(func(ph Phase, _ float64) { phases = append(phases, ph) }))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ValidateSpec{{SimWidth: 3}, {SimWidth: -1}} {
		if _, err := s.Validate(context.Background(), spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Validate(%+v) = %v, want ErrBadSpec", spec, err)
		}
	}
	if len(phases) != 0 {
		t.Errorf("a rejected spec reported progress: %v", phases)
	}
}

// A bad spec is refused before any phase runs, whichever field is out
// of range: a cold Session reports no progress, so it analyzed
// nothing, and ValidateSpec.Validate gives the same error.  The harness
// settings used to be checked only after the analytic oracle had run,
// a weighted analysis included.
func TestValidateBadSpecRunsNothing(t *testing.T) {
	c, _ := Benchmark("c1355")
	probs := UniformProbs(c)
	for i := range probs {
		probs[i] = 0.3
	}
	for _, spec := range []ValidateSpec{
		{Epsilon: 2},
		{Epsilon: -1, InputProbs: probs},
		{PMinFloor: 1},
		{MinPatterns: 200, MaxPatterns: 100},
		{GrossTol: -1},
		{SimWidth: 4},
		{FaultModel: "nope"},
	} {
		var phases []Phase
		s, err := Open(c, WithProgress(func(ph Phase, _ float64) { phases = append(phases, ph) }))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Validate(context.Background(), spec)
		if !errors.Is(err, ErrBadSpec) && !errors.Is(err, ErrBadFaultModel) {
			t.Errorf("Validate(%+v) = %v, want ErrBadSpec or ErrBadFaultModel", spec, err)
			continue
		}
		if early := spec.Validate(); early == nil || early.Error() != err.Error() {
			t.Errorf("ValidateSpec.Validate(%+v) = %v, want %v", spec, early, err)
		}
		if len(phases) != 0 {
			t.Errorf("Validate(%+v) reported progress before refusing: %v", spec, phases)
		}
	}
}

// TestValidateWeightedInputs runs the three oracles under a non-uniform
// tuple: the weighted Monte-Carlo generator and the weighted BDD
// probabilities must stay statistically consistent (the hard
// exact-vs-empirical gate), with the envelope supplied explicitly
// since calibration only covers uniform runs.
func TestValidateWeightedInputs(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	probs := UniformProbs(c)
	for i := range probs {
		probs[i] = 0.3
	}
	rep, err := s.Validate(context.Background(), ValidateSpec{
		InputProbs: probs,
		// The calibrated bands describe uniform runs only; gate the
		// analytic chain loosely and let the exact-vs-empirical check
		// carry the test.
		Envelope: &ValidateEnvelope{CorrMin: 0.2, SpearMin: 0.2, AvgErrMax: 0.5, BiasLo: -0.5, BiasHi: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnvelopeSource != "spec" {
		t.Errorf("envelope source = %q, want spec", rep.EnvelopeSource)
	}
	if !rep.HasExact {
		t.Fatal("c17 weighted BDD must build")
	}
	for _, f := range rep.Flags {
		if f.Kind == "exact-vs-empirical" {
			t.Errorf("weighted oracle chains disagree: %s", f.Detail)
		}
	}
}
