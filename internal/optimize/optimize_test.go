package optimize

import (
	"math"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/netlist"
	"protest/internal/testlen"
)

// eq8 is an 8-bit equality checker: the archetypal random-pattern
// resistant structure (p(EQ) = 2^-8 under uniform patterns).
func eq8(t *testing.T) *circuit.Circuit {
	t.Helper()
	src := `
INPUT(a0)
INPUT(a1)
INPUT(a2)
INPUT(a3)
INPUT(b0)
INPUT(b1)
INPUT(b2)
INPUT(b3)
OUTPUT(eq)
x0 = XNOR(a0, b0)
x1 = XNOR(a1, b1)
x2 = XNOR(a2, b2)
x3 = XNOR(a3, b3)
eq = AND(x0, x1, x2, x3)
`
	c, err := netlist.ParseString(src, "eq8")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestObjectiveFiniteAndOrdered(t *testing.T) {
	c := eq8(t)
	an, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	uniform := core.UniformProbs(c)
	objU, err := Objective(an, faults, uniform, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(objU, 0) || math.IsNaN(objU) {
		t.Fatalf("objective not finite: %v", objU)
	}
	// A clearly bad tuple (everything at 0.9) must not beat uniform by
	// definition of... actually it may; just check finiteness.
	skew := make([]float64, len(uniform))
	for i := range skew {
		skew[i] = 0.9
	}
	objS, err := Objective(an, faults, skew, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(objS) {
		t.Fatal("objective NaN")
	}
}

func TestOptimizeImprovesEq8(t *testing.T) {
	c := eq8(t)
	an, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	res, err := Optimize(t.Context(), an, faults, Options{MaxSweeps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < res.InitialObjective {
		t.Errorf("optimization worsened the objective: %v -> %v", res.InitialObjective, res.Objective)
	}
	if res.Evaluations < 2 {
		t.Error("suspiciously few evaluations")
	}
	// All probabilities on the 1/16 lattice inside (0,1).
	for i, p := range res.Probs {
		k := p * 16
		if p <= 0 || p >= 1 || math.Abs(k-math.Round(k)) > 1e-9 {
			t.Errorf("input %d: probability %v off lattice", i, p)
		}
	}
}

// The headline effect (Tables 3 vs 5): the optimized tuple reduces the
// required test length for the equality circuit by a large factor.
func TestOptimizeReducesTestLength(t *testing.T) {
	c := eq8(t)
	an, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)

	uniform, err := an.Run(t.Context(), core.UniformProbs(c))
	if err != nil {
		t.Fatal(err)
	}
	nUniform, err := testlen.Required(uniform.DetectProbs(faults), 0.98)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Optimize(t.Context(), an, faults, Options{MaxSweeps: 8})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := an.Run(t.Context(), res.Probs)
	if err != nil {
		t.Fatal(err)
	}
	nOpt, err := testlen.Required(opt.DetectProbs(faults), 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if nOpt >= nUniform {
		t.Errorf("optimization did not shrink N: %d -> %d", nUniform, nOpt)
	}
	t.Logf("eq8: N(uniform)=%d N(optimized)=%d probs=%v", nUniform, nOpt, res.Probs)
}

func TestOptimizeWithRestarts(t *testing.T) {
	c := eq8(t)
	an, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	base, err := Optimize(t.Context(), an, faults, Options{MaxSweeps: 3})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Optimize(t.Context(), an, faults, Options{MaxSweeps: 3, Restarts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Objective < base.Objective-1e-9 {
		t.Errorf("restarts must never return a worse tuple: %v < %v", rr.Objective, base.Objective)
	}
}

func TestOptimizeCallback(t *testing.T) {
	c := eq8(t)
	an, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, err = Optimize(t.Context(), an, fault.Collapse(c), Options{
		MaxSweeps: 2,
		OnImprove: func(sweep, input int, obj float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("no improvement callbacks on a resistant circuit")
	}
}

func TestOptimizeDefaultsAndDeterminism(t *testing.T) {
	c := circuits.C17()
	an, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	a, err := Optimize(t.Context(), an, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(t.Context(), an, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Error("optimizer must be deterministic")
	}
	for i := range a.Probs {
		if a.Probs[i] != b.Probs[i] {
			t.Error("tuples differ between identical runs")
		}
	}
}

func TestLogJNPenalty(t *testing.T) {
	// An undetectable fault must not produce -inf (the climber needs a
	// finite gradient).
	v := logJN([]float64{0, 0.5}, 100)
	if math.IsInf(v, -1) || math.IsNaN(v) {
		t.Errorf("logJN with undetectable fault = %v", v)
	}
	// A certain fault contributes nothing.
	if got := logJN([]float64{1}, 100); got != 0 {
		t.Errorf("logJN certain fault = %v", got)
	}
}
