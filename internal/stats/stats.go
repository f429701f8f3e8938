// Package stats provides the statistical evaluation the paper uses to
// validate PROTEST: correlation coefficients and error measures between
// estimated and simulated detection probabilities (Table 1), ASCII
// correlation diagrams standing in for Figures 5 and 6, and the
// interval machinery of the self-validation harness (Wilson score
// intervals, normal quantiles, exact binomial tail tests).
//
// # Contracts
//
// Every pairwise function (MaxAbsError, MeanAbsError, MeanBias,
// Correlation, SpearmanCorrelation, Summarize, Scatter) panics when the
// two slices differ in length — a length mismatch is a programming
// error at the call site, never a data condition, so it fails loudly
// instead of truncating.  Empty inputs are valid everywhere and yield
// zero values, never a panic.  NaN or ±Inf elements propagate IEEE-754
// style: the affected aggregate becomes NaN rather than being silently
// dropped, so a caller that must reject such inputs has to validate
// them first (the validation harness does).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MaxAbsError returns max_i |a_i - b_i|; 0 on empty input, NaN when
// any pair differs by NaN.
func MaxAbsError(a, b []float64) float64 {
	mustSameLen(a, b)
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m || math.IsNaN(d) {
			m = d
		}
	}
	return m
}

// MeanAbsError returns (Σ|a_i - b_i|) / n — the paper's Δ, the average
// difference between simulated and estimated values.
func MeanAbsError(a, b []float64) float64 {
	mustSameLen(a, b)
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}

// MeanBias returns (Σ(b_i - a_i)) / n, positive when b systematically
// exceeds a.  The paper observes P_SIM > P_PROT on average.
func MeanBias(a, b []float64) float64 {
	mustSameLen(a, b)
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += b[i] - a[i]
	}
	return s / float64(len(a))
}

// Correlation returns the Pearson correlation coefficient of a and b —
// the paper's C₀.
//
// Contract: it returns 0 when either vector has zero variance
// (constant, including empty or single-element input) — the
// coefficient is undefined there and 0 is the conservative "no linear
// relationship demonstrated" answer, chosen so that a dead oracle
// producing a constant vector fails a corr >= threshold gate instead
// of passing it.  A NaN or ±Inf element makes the result NaN (the
// variance accumulators absorb it), never a misleading finite value.
func Correlation(a, b []float64) float64 {
	mustSameLen(a, b)
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if math.IsNaN(cov) || math.IsNaN(va) || math.IsNaN(vb) {
		return math.NaN()
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// mustSameLen is the shared length guard of every pairwise function in
// this package: mismatched slice lengths panic with a "stats: length
// mismatch" message.  The panic is part of the documented API contract
// (see the package comment) — callers pairing slices of different
// origins must check lengths themselves.
func mustSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(a), len(b)))
	}
}

// SpearmanCorrelation returns the rank correlation of a and b: the
// Pearson correlation of their rank vectors, with ties assigned the
// average rank.  For testability measures rank agreement often matters
// more than value agreement (a monotone transform of a perfect measure
// still orders the faults correctly), so Table-1-style comparisons
// report both.
//
// Contract: like Correlation it returns 0 when either rank vector has
// zero variance (all elements tied, including empty input).  A NaN
// element has no rank, so any NaN in either input makes the result NaN
// rather than ranking garbage.
func SpearmanCorrelation(a, b []float64) float64 {
	mustSameLen(a, b)
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return math.NaN()
		}
	}
	return Correlation(ranks(a), ranks(b))
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Scatter renders an ASCII correlation diagram of the points (x_i, y_i)
// over the unit square, the textual analogue of the paper's Figures 5
// and 6.  width and height are the plot dimensions in characters.
// Cells hit by one point show '+', by several '*'.
func Scatter(x, y []float64, width, height int, xLabel, yLabel string) string {
	mustSameLen(x, y)
	if width < 10 {
		width = 10
	}
	if height < 5 {
		height = 5
	}
	grid := make([][]int, height)
	for r := range grid {
		grid[r] = make([]int, width)
	}
	for i := range x {
		cx := int(x[i] * float64(width-1))
		cy := int(y[i] * float64(height-1))
		if cx < 0 {
			cx = 0
		}
		if cx >= width {
			cx = width - 1
		}
		if cy < 0 {
			cy = 0
		}
		if cy >= height {
			cy = height - 1
		}
		grid[height-1-cy][cx]++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", yLabel)
	for r := 0; r < height; r++ {
		yv := float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&sb, "%4.1f |", yv)
		for c := 0; c < width; c++ {
			switch {
			case grid[r][c] == 0:
				sb.WriteByte(' ')
			case grid[r][c] == 1:
				sb.WriteByte('+')
			default:
				sb.WriteByte('*')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("     +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "      0.0%s1.0  %s\n", strings.Repeat(" ", width-6), xLabel)
	return sb.String()
}

// Summary bundles the Table 1 measures for one circuit.  The JSON tags
// keep the serialized pipeline Report stable across refactors.
type Summary struct {
	MaxErr float64 `json:"max_err"` // maximal |P_PROT - P_SIM|
	AvgErr float64 `json:"avg_err"` // Δ, the average difference
	Corr   float64 `json:"corr"`    // C₀, correlation coefficient
	Bias   float64 `json:"bias"`    // mean(P_SIM - P_PROT); positive = under-estimation
	N      int     `json:"n"`
}

// Summarize computes the Table 1 row for estimated vs simulated values.
// Empty inputs yield the zero Summary (N=0), not a panic; mismatched
// lengths panic per the package contract.
func Summarize(estimated, simulated []float64) Summary {
	return Summary{
		MaxErr: MaxAbsError(estimated, simulated),
		AvgErr: MeanAbsError(estimated, simulated),
		Corr:   Correlation(estimated, simulated),
		Bias:   MeanBias(estimated, simulated),
		N:      len(estimated),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d maxErr=%.2f avgErr=%.2f corr=%.2f bias=%+.3f",
		s.N, s.MaxErr, s.AvgErr, s.Corr, s.Bias)
}
