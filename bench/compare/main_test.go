package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(data, n=4) and
// statistics.median, which the benchmark's acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.2, 1.5, 9.9, 4.4, 7.1}, 2.35, 4.4, 8.5},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, med, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"faster on every pair", steady, scale(steady, 0.8), true, "improved"},
		{"same", steady, steady, true, "no worse"},
		{"slower within the bound", steady, scale(steady, 1.05), true, "no worse"},
		{"slower beyond the bound", steady, scale(steady, 1.2), true, "regressed"},
		{"higher is better", steady, scale(steady, 0.8), false, "regressed"},
		{"spread wider than the bound", steady, []float64{60, 140, 70, 130, 100, 65, 135, 100, 62, 138}, true, "unresolved"},
		{"too few pairs for a gain", steady[:5], scale(steady[:5], 0.8), true, "no worse"},
	} {
		if got, _ := verdict(c.parent, c.change, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
