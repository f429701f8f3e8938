package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestErrors(t *testing.T) {
	a := []float64{0.1, 0.5, 0.9}
	b := []float64{0.2, 0.5, 0.5}
	if got := MaxAbsError(a, b); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("MaxAbsError = %v", got)
	}
	if got := MeanAbsError(a, b); math.Abs(got-0.5/3) > 1e-15 {
		t.Errorf("MeanAbsError = %v", got)
	}
	if got := MeanBias(a, b); math.Abs(got-(-0.3)/3) > 1e-15 {
		t.Errorf("MeanBias = %v", got)
	}
}

func TestErrorsEmpty(t *testing.T) {
	if MeanAbsError(nil, nil) != 0 || MeanBias(nil, nil) != 0 || Correlation(nil, nil) != 0 {
		t.Error("empty inputs should give zero")
	}
}

func TestCorrelationPerfect(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.7}
	if got := Correlation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %v", got)
	}
	neg := make([]float64, len(a))
	for i := range a {
		neg[i] = 1 - a[i]
	}
	if got := Correlation(a, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %v", got)
	}
}

func TestCorrelationConstant(t *testing.T) {
	a := []float64{0.5, 0.5, 0.5}
	b := []float64{0.1, 0.2, 0.3}
	if got := Correlation(a, b); got != 0 {
		t.Errorf("constant vector correlation = %v, want 0", got)
	}
}

// Correlation is invariant under affine rescaling and always in [-1,1].
func TestCorrelationProperties(t *testing.T) {
	f := func(raw [6]uint8) bool {
		a := []float64{float64(raw[0]), float64(raw[1]), float64(raw[2])}
		b := []float64{float64(raw[3]), float64(raw[4]), float64(raw[5])}
		c := Correlation(a, b)
		if math.Abs(c) > 1+1e-12 {
			return false
		}
		scaled := []float64{2*a[0] + 3, 2*a[1] + 3, 2*a[2] + 3}
		c2 := Correlation(scaled, b)
		return math.Abs(c-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	Correlation([]float64{1}, []float64{1, 2})
}

func TestScatter(t *testing.T) {
	x := []float64{0, 0.5, 1, 0.5}
	y := []float64{0, 0.5, 1, 0.5}
	s := Scatter(x, y, 20, 10, "Pprot", "Psim")
	if !strings.Contains(s, "+") {
		t.Error("scatter should plot single-hit points")
	}
	if !strings.Contains(s, "*") {
		t.Error("scatter should mark the doubly-hit cell")
	}
	if !strings.Contains(s, "Pprot") || !strings.Contains(s, "Psim") {
		t.Error("labels missing")
	}
	// Degenerate sizes are clamped, not crashed.
	_ = Scatter(x, y, 1, 1, "x", "y")
}

func TestSummarize(t *testing.T) {
	est := []float64{0.2, 0.4, 0.6}
	sim := []float64{0.3, 0.5, 0.7}
	s := Summarize(est, sim)
	if math.Abs(s.Bias-0.1) > 1e-12 {
		t.Errorf("bias = %v", s.Bias)
	}
	if math.Abs(s.Corr-1) > 1e-12 {
		t.Errorf("corr = %v", s.Corr)
	}
	if s.N != 3 {
		t.Errorf("n = %d", s.N)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.9}
	b := []float64{1, 4, 9, 81} // monotone transform of a
	if got := SpearmanCorrelation(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman of monotone transform = %v, want 1", got)
	}
	// Pearson of the same data is below 1 (nonlinear).
	if p := Correlation(a, b); p >= 1-1e-9 {
		t.Errorf("Pearson %v should be < 1 for a nonlinear transform", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 1, 2, 3}
	b := []float64{1, 1, 2, 3}
	if got := SpearmanCorrelation(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("tied identical vectors = %v", got)
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("ranks = %v, want %v", r, want)
			break
		}
	}
}
