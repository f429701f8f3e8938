package testlen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSetProbabilitySingleFault(t *testing.T) {
	// One fault with p=0.5: P_F(n) = 1 - 0.5^n.
	for n := int64(1); n <= 10; n++ {
		got := SetProbability([]float64{0.5}, n)
		want := 1 - math.Pow(0.5, float64(n))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: %v want %v", n, got, want)
		}
	}
}

func TestSetProbabilityZeroPatterns(t *testing.T) {
	if got := SetProbability([]float64{0.5}, 0); got != 0 {
		t.Errorf("0 patterns should give 0, got %v", got)
	}
	if got := SetProbability(nil, 0); got != 1 {
		t.Errorf("empty fault set always covered, got %v", got)
	}
}

func TestSetProbabilityUndetectable(t *testing.T) {
	if got := SetProbability([]float64{0.5, 0}, 100); got != 0 {
		t.Errorf("undetectable fault must clamp P_F to 0, got %v", got)
	}
}

func TestSetProbabilityCertainFault(t *testing.T) {
	got := SetProbability([]float64{1, 0.5}, 3)
	want := 1 - 0.125
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestRequiredSimple(t *testing.T) {
	// One fault, p=0.5, e=0.99: need 1-(0.5)^n >= 0.99 -> n = 7.
	n, err := Required([]float64{0.5}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("n = %d, want 7", n)
	}
}

func TestRequiredIsMinimal(t *testing.T) {
	probs := []float64{0.3, 0.05, 0.2}
	n, err := Required(probs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if SetProbability(probs, n) < 0.95 {
		t.Errorf("N=%d does not reach confidence", n)
	}
	if n > 1 && SetProbability(probs, n-1) >= 0.95 {
		t.Errorf("N=%d is not minimal", n)
	}
}

func TestRequiredErrors(t *testing.T) {
	if _, err := Required([]float64{0.5}, 0); err == nil {
		t.Error("e=0 must fail")
	}
	if _, err := Required([]float64{0.5}, 1); err == nil {
		t.Error("e=1 must fail")
	}
	if _, err := Required([]float64{0}, 0.9); err == nil {
		t.Error("undetectable fault must fail")
	}
}

func TestRequiredTinyProbabilities(t *testing.T) {
	// The COMP regime: detection probabilities around 2^-24 need
	// hundreds of millions of patterns; numerics must hold up.
	p := math.Pow(2, -24)
	n, err := Required([]float64{p}, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	// n ≈ ln(0.02)/ln(1-p) ≈ 3.912/p ≈ 6.5e7.
	want := math.Log(0.02) / math.Log1p(-p)
	if math.Abs(float64(n)-want) > want*0.01 {
		t.Errorf("n = %d, analytic %v", n, want)
	}
}

// Monotonicity properties of Required.
func TestRequiredMonotone(t *testing.T) {
	f := func(rawP uint8, rawE uint8) bool {
		p := 0.05 + 0.9*float64(rawP)/255
		e1 := 0.5 + 0.4*float64(rawE)/255
		e2 := e1 + 0.05
		n1, err1 := Required([]float64{p}, e1)
		n2, err2 := Required([]float64{p}, e2)
		if err1 != nil || err2 != nil {
			return false
		}
		return n2 >= n1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRequiredMonotoneInProbability(t *testing.T) {
	n1, _ := Required([]float64{0.1}, 0.95)
	n2, _ := Required([]float64{0.2}, 0.95)
	if n2 > n1 {
		t.Errorf("easier fault needs more patterns: %d > %d", n2, n1)
	}
}

func TestExpectedCoverage(t *testing.T) {
	probs := []float64{0.5, 0.5}
	got := ExpectedCoverage(probs, 1)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage after 1 pattern = %v, want 0.5", got)
	}
	if got := ExpectedCoverage(probs, 1000); got < 0.999999 {
		t.Errorf("coverage after 1000 patterns = %v", got)
	}
	if got := ExpectedCoverage([]float64{0, 1}, 5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mixed coverage = %v, want 0.5", got)
	}
	if ExpectedCoverage(nil, 5) != 1 {
		t.Error("empty fault list should report full coverage")
	}
}

// TestSelectTop pins which faults F_d keeps: the d·100% with the
// highest detection probabilities, at least one, with an invalid d
// treated as 1.
func TestSelectTop(t *testing.T) {
	set := Prepare([]float64{0.1, 0.9, 0.5, 0.3})
	for _, tc := range []struct {
		d   float64
		top []float64
	}{
		{0.5, []float64{0.9, 0.5}},
		{1, []float64{0.9, 0.5, 0.3, 0.1}},
		{0.01, []float64{0.9}},
		{-1, []float64{0.9, 0.5, 0.3, 0.1}},
	} {
		for _, e := range []float64{0.9, 0.999} {
			got, gotErr := set.RequiredFraction(tc.d, e)
			want, wantErr := Required(tc.top, e)
			if got != want || gotErr != nil || wantErr != nil {
				t.Errorf("d=%v e=%v: RequiredFraction = %d, %v; Required over %v = %d, %v", tc.d, e, got, gotErr, tc.top, want, wantErr)
			}
		}
	}
}

// Dropping the hardest faults shrinks the required test length — the
// paper's motivation for F_d.
func TestRequiredFractionShrinks(t *testing.T) {
	probs := []float64{0.4, 0.3, 0.2, 1e-6}
	nAll, err := RequiredFraction(probs, 1.0, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	nTop, err := RequiredFraction(probs, 0.75, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if nTop >= nAll {
		t.Errorf("dropping the hard fault should shrink N: %d >= %d", nTop, nAll)
	}
	if nAll < 1000000 {
		t.Errorf("hard fault should dominate N, got %d", nAll)
	}
}

func TestTable(t *testing.T) {
	probs := []float64{0.5, 0.25, 0.125}
	rows := Table(probs, []float64{1.0, 0.98}, []float64{0.95, 0.98, 0.999})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("row (%v,%v): %v", r.D, r.E, r.Err)
		}
		if r.N < 1 {
			t.Errorf("row (%v,%v): N=%d", r.D, r.E, r.N)
		}
	}
	// Within a d block, N grows with e.
	if !(rows[0].N <= rows[1].N && rows[1].N <= rows[2].N) {
		t.Error("N not monotone in e")
	}
}

func TestLog1mexp(t *testing.T) {
	// log(1-e^-1) = log(0.6321...).
	got := log1mexp(-1)
	want := math.Log(1 - math.Exp(-1))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("log1mexp(-1) = %v want %v", got, want)
	}
	if !math.IsInf(log1mexp(0), -1) {
		t.Error("log1mexp(0) must be -inf")
	}
	// Tiny magnitude: log(1-e^-1e-10) ≈ log(1e-10).
	got = log1mexp(-1e-10)
	if math.Abs(got-math.Log(1e-10)) > 1e-3 {
		t.Errorf("log1mexp(-1e-10) = %v", got)
	}
}
