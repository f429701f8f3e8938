package testlen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
)

// requiredOracle is Required before it skipped underflowing terms: it
// sums log(1-(1-p)^N) over every fault at each search step.
func requiredOracle(probs []float64, e float64) (int64, error) {
	if e <= 0 || e >= 1 {
		return 0, fmt.Errorf("testlen: confidence %v out of (0,1)", e)
	}
	for _, p := range probs {
		if p <= 0 {
			return 0, fmt.Errorf("testlen: a fault has detection probability 0; no test length reaches confidence %v", e)
		}
	}
	logE := math.Log(e)
	logq := make([]float64, 0, len(probs))
	for _, p := range probs {
		if p < 1 {
			logq = append(logq, math.Log1p(-p))
		}
	}
	logSet := func(n int64) float64 {
		sum := 0.0
		for _, lq := range logq {
			sum += log1mexp(float64(n) * lq)
			if math.IsInf(sum, -1) {
				return sum
			}
		}
		return sum
	}
	lo, hi := int64(0), int64(1)
	for logSet(hi) < logE {
		if hi >= MaxN/2 {
			return 0, fmt.Errorf("testlen: required pattern count exceeds %d", MaxN)
		}
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if logSet(mid) >= logE {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// selectTopOracle returns F_d, the d·100% highest probabilities (at
// least one), by sorting a copy: the set a prepared Set takes as a
// prefix of its descending order.
func selectTopOracle(probs []float64, d float64) []float64 {
	if d <= 0 || d > 1 {
		d = 1
	}
	cp := append([]float64(nil), probs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	k := min(max(int(math.Round(d*float64(len(cp)))), 1), len(cp))
	return cp[:k]
}

// expectedCoverageOracle is ExpectedCoverage before it read prepared
// logs: it computes each term from its probability.
func expectedCoverageOracle(probs []float64, n int64) float64 {
	if len(probs) == 0 {
		return 1
	}
	sum := 0.0
	for _, p := range probs {
		if p >= 1 {
			sum += 1
			continue
		}
		if p <= 0 {
			continue
		}
		sum += -math.Expm1(float64(n) * math.Log1p(-p))
	}
	return sum / float64(len(probs))
}

// checkAgainstOracle requires the prepared set of probs to answer
// RequiredFraction with the oracle's N and error for every (d, e), and
// ExpectedCoverage with the direct form's bits at several pattern
// counts; and Required, on the unsorted set, to return the oracle's N
// and error.
func checkAgainstOracle(t *testing.T, name string, probs []float64, set *Set) {
	t.Helper()
	for _, d := range []float64{0.5, 0.9, 1} {
		for _, e := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			wantN, wantErr := requiredOracle(selectTopOracle(probs, d), e)
			gotN, gotErr := set.RequiredFraction(d, e)
			if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s d=%v e=%v: RequiredFraction = %d, %v; oracle %d, %v", name, d, e, gotN, gotErr, wantN, wantErr)
			}
		}
	}
	for _, n := range []int64{0, 1, 7, 64, 1000, 4096, 1 << 40} {
		got, want := set.ExpectedCoverage(n), expectedCoverageOracle(probs, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s n=%d: ExpectedCoverage = %v; direct form %v", name, n, got, want)
		}
	}
	for _, e := range []float64{0.5, 0.99} {
		wantN, wantErr := requiredOracle(probs, e)
		gotN, gotErr := Required(probs, e)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s unsorted e=%v: Required = %d, %v; oracle %d, %v", name, e, gotN, gotErr, wantN, wantErr)
		}
	}
}

// TestRequiredMatchesOracle pins Required and a prepared Set, which
// skip the terms that underflow to -0 and start from a closed-form
// bracket, to the full summation and plain doubling over a sorted copy,
// and a Set's ExpectedCoverage to the per-probability form: the same N,
// the same error and the same coverage bits on every
// registry circuit's detection probabilities under each fault model,
// on the sets at the bracket's edges, and on seeded random probability
// sets that mix certain, near-certain, tiny and (in some sets) zero
// probabilities.
func TestRequiredMatchesOracle(t *testing.T) {
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		res, err := core.Analyze(c, core.UniformProbs(c), core.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range fault.Models() {
			if faults := m.Faults(c); len(faults) > 0 {
				probs := res.DetectProbs(faults)
				checkAgainstOracle(t, name+"/"+string(m), probs, Prepare(probs))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		probs []float64
	}{
		{"every p = 1", []float64{1, 1, 1}},
		{"single fault", []float64{0.3}},
		{"bracket beyond MaxN", []float64{1e-300, 0.5, 0.9}},
		{"bracket at MaxN", []float64{1e-18, 0.25, 1}},
		{"p_min near 1", []float64{1 - 1e-15, 1 - 1e-9, 1}},
		{"empty set", nil},
		{"NaN sorts last", []float64{0.5, math.NaN(), 1, 0.2}},
		{"NaN after a zero", []float64{0.5, math.NaN(), 0, 0.3}},
	} {
		checkAgainstOracle(t, tc.name, tc.probs, Prepare(tc.probs))
	}
	rng := rand.New(rand.NewPCG(14, 1))
	for set := 0; set < 40; set++ {
		probs := make([]float64, 1+rng.IntN(500))
		for i := range probs {
			switch r := rng.Float64(); {
			case r < 0.05:
				probs[i] = 1
			case r < 0.25:
				probs[i] = 1 - math.Pow(10, -1-15*rng.Float64())
			case r < 0.45:
				probs[i] = math.Pow(10, -12*rng.Float64())
			default:
				probs[i] = rng.Float64()
			}
		}
		if set%8 == 7 {
			probs[rng.IntN(len(probs))] = 0
		}
		checkAgainstOracle(t, fmt.Sprintf("random set %d", set), probs, Prepare(probs))
	}
}
