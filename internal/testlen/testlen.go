// Package testlen computes necessary random-test lengths from fault
// detection probabilities — section 5 of the paper.
//
// Under the assumption that fault detections are statistically
// independent, the probability that N random patterns detect every
// fault in F is
//
//	P_F = Π_{f∈F} (1 - (1 - P_f)^N)            (formula 3)
//
// and the required N for a confidence e is obtained by solving
// P_F >= e.  PROTEST additionally restricts F to the d·100% faults with
// the highest detection probabilities (F_d), trading a small uncovered
// tail for drastically shorter tests.
package testlen

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// expUnderflow is math.Exp's underflow bound: Exp(x) is exactly 0 for
// every x below it.
const expUnderflow = -7.45133219101941108420e+02

// MaxN caps the search; requests beyond this are reported as
// unreachable (the paper's COMP needs ~5·10^8 patterns, well inside).
const MaxN = int64(1) << 62

// SetProbability returns P_F for a pattern count n: the probability
// that n patterns detect all faults with the given detection
// probabilities.  Faults with probability 0 make the result 0.
func SetProbability(probs []float64, n int64) float64 {
	return math.Exp(logSetProbability(probs, n))
}

// logSetProbability computes log P_F stably:
// Σ log(1 - (1-P_f)^N) with (1-P_f)^N = exp(N·log1p(-P_f)).
func logSetProbability(probs []float64, n int64) float64 {
	if n <= 0 {
		if len(probs) == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for _, p := range probs {
		if p <= 0 {
			return math.Inf(-1)
		}
		if p >= 1 {
			continue
		}
		miss := float64(n) * math.Log1p(-p) // log (1-p)^n
		// log(1 - e^miss)
		sum += log1mexp(miss)
		if math.IsInf(sum, -1) {
			return sum
		}
	}
	return sum
}

// log1mexp computes log(1 - e^x) for x < 0 stably.
func log1mexp(x float64) float64 {
	if x >= 0 {
		return math.Inf(-1)
	}
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// ExpectedCoverage returns the expected fraction of faults detected by
// n patterns: (Σ 1-(1-P_f)^n) / |F|.  This is what a coverage curve
// (Table 6) measures on average.
func ExpectedCoverage(probs []float64, n int64) float64 {
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

// Required returns the smallest N with P_F >= e.  It returns an error
// when some fault has detection probability 0 (unreachable) or when N
// would exceed MaxN.
func Required(probs []float64, e float64) (int64, error) {
	if e <= 0 || e >= 1 {
		return 0, fmt.Errorf("testlen: confidence %v out of (0,1)", e)
	}
	for _, p := range probs {
		if p <= 0 {
			return 0, fmt.Errorf("testlen: a fault has detection probability 0; no test length reaches confidence %v", e)
		}
	}
	logE := math.Log(e)
	// The search evaluates log P_F for dozens of pattern counts over
	// one fixed fault set; the per-fault miss-rate logs log(1-P_f)
	// depend only on the set, so hoist them out of the search.  Faults
	// with P_f >= 1 contribute 0 to every sum and are dropped.
	logq := make([]float64, 0, len(probs))
	for _, p := range probs {
		if p < 1 {
			logq = append(logq, math.Log1p(-p))
		}
	}
	// A term whose n·log(1-p) lies below expUnderflow adds exactly -0
	// to the sum ((1-p)^n underflows to 0, and log1p(-0) = -0), so each
	// step skips the prefix of such terms: the terms up to the last
	// position where the running maximum of log(1-p) still underflows.
	// For probabilities in descending order, as SelectTop returns them,
	// log(1-p) ascends and the prefix holds every such term.
	runMax := make([]float64, len(logq))
	top := math.Inf(-1)
	for i, lq := range logq {
		top = max(top, lq)
		runMax[i] = top
	}
	logSet := func(n int64) float64 {
		k := sort.Search(len(runMax), func(i int) bool { return float64(n)*runMax[i] >= expUnderflow })
		sum := 0.0
		for _, lq := range logq[k:] {
			// log(1 - (1-p)^n) with (1-p)^n = exp(n·log(1-p)).
			sum += log1mexp(float64(n) * lq)
			if math.IsInf(sum, -1) {
				return sum
			}
		}
		return sum
	}
	// Bracket the search in closed form from p_min, the smallest
	// probability (top = log(1-p_min)).  Any N with P_F >= e detects
	// the hardest fault alone with probability at least e, so
	// N >= log(1-e)/log(1-p_min); by the union bound
	// P_F >= 1 - m(1-p_min)^N, N = log((1-e)/m)/log(1-p_min) suffices.
	// Each bound is checked with one evaluation, and one that fails its
	// check (rounding) is dropped, so rounding can only widen the
	// search: the doubling below then runs as without the bracket.
	lo, hi := int64(0), int64(1)
	if len(logq) > 0 {
		if n := searchCount(math.Log1p(-e)/top) - 1; n > 0 && logSet(n) < logE {
			lo = n
		}
		for hi <= lo {
			hi *= 2
		}
		if n := searchCount(math.Log((1-e)/float64(len(logq))) / top); n > lo && logSet(n) >= logE {
			hi = n
		}
	}
	// Exponential search for an upper bound.
	for logSet(hi) < logE {
		if hi >= MaxN/2 {
			return 0, fmt.Errorf("testlen: required pattern count exceeds %d", MaxN)
		}
		lo = hi
		hi *= 2
	}
	// Binary search in (lo, hi].
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

// searchCount rounds a bracket bound of Required up to a pattern
// count, at most MaxN/2 (the largest count the search evaluates).
func searchCount(x float64) int64 {
	switch {
	case !(x > 0):
		return 0
	case x >= float64(MaxN/2):
		return MaxN / 2
	}
	return int64(math.Ceil(x))
}

// SelectTop returns the d·100% faults with the highest detection
// probabilities (the paper's F_d), d in (0,1].  At least one fault is
// kept.  The input is not modified.
func SelectTop(probs []float64, d float64) []float64 {
	if d <= 0 || d > 1 {
		d = 1
	}
	cp := append([]float64(nil), probs...)
	slices.Sort(cp)
	slices.Reverse(cp)
	k := int(math.Round(d * float64(len(cp))))
	if k < 1 {
		k = 1
	}
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}

// RequiredFraction returns the smallest N such that the d·100% easiest
// faults are all detected with probability e — the quantity tabulated
// in Tables 2, 3 and 5 of the paper.
func RequiredFraction(probs []float64, d, e float64) (int64, error) {
	return Required(SelectTop(probs, d), e)
}

// Row is one entry of a test-length table.
type Row struct {
	D, E float64
	N    int64
	Err  error
}

// Table computes the paper's table layout: N for each (d, e) pair.
func Table(probs []float64, ds, es []float64) []Row {
	var rows []Row
	for _, d := range ds {
		top := SelectTop(probs, d)
		for _, e := range es {
			n, err := Required(top, e)
			rows = append(rows, Row{D: d, E: e, N: n, Err: err})
		}
	}
	return rows
}
