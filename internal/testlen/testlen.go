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

// Set is a fault set prepared for repeated test-length questions:
// RequiredFraction and ExpectedCoverage, for any (d, e) and any pattern
// count, read the miss-rate logs log(1-P_f) that Prepare computes once.
// A Set is immutable after Prepare and safe for concurrent use.
type Set struct {
	probs []float64 // detection probabilities, in fault order
	logq  []float64 // log(1-P_f) in fault order, for ExpectedCoverage
	// desc holds log(1-P_f) of the faults with 0 < P_f < 1 in
	// descending order of P_f, the order in which F_d takes them.  It
	// never decreases, so it is its own running maximum.
	desc []float64
	// certain and zero count the faults with P_f >= 1 and P_f <= 0: the
	// head and the tail of descending order.
	certain, zero int
}

// Prepare returns the Set of the detection probabilities probs.  The
// Set keeps probs; the caller must not modify it afterwards.
func Prepare(probs []float64) *Set {
	s := &Set{probs: probs, logq: make([]float64, len(probs))}
	desc := make([]float64, 0, len(probs))
	for i, p := range probs {
		switch {
		case p >= 1:
			s.certain++
		case p <= 0:
			s.zero++
		default:
			s.logq[i] = math.Log1p(-p)
			if p < 1 { // not NaN, which F_d sorts last and Required skips
				desc = append(desc, p)
			}
		}
	}
	slices.Sort(desc)
	slices.Reverse(desc)
	for i, p := range desc {
		desc[i] = math.Log1p(-p)
	}
	s.desc = desc
	return s
}

// Probs returns the Set's detection probabilities in fault order.  The
// slice is shared and must be treated as read-only.
func (s *Set) Probs() []float64 { return s.probs }

// ExpectedCoverage returns the expected fraction of faults detected by
// n patterns: (Σ 1-(1-P_f)^n) / |F|.  This is what a coverage curve
// (Table 6) measures on average.
func ExpectedCoverage(probs []float64, n int64) float64 {
	return Prepare(probs).ExpectedCoverage(n)
}

// ExpectedCoverage is the free ExpectedCoverage on the Set, summed in
// fault order.
func (s *Set) ExpectedCoverage(n int64) float64 {
	if len(s.probs) == 0 {
		return 1
	}
	sum := 0.0
	for i, p := range s.probs {
		switch {
		case p >= 1:
			sum += 1
		case p <= 0:
		default:
			sum += -math.Expm1(float64(n) * s.logq[i])
		}
	}
	return sum / float64(len(s.probs))
}

// Required returns the smallest N with P_F >= e.  It returns an error
// when some fault has detection probability 0 (unreachable) or when N
// would exceed MaxN.  The sum runs in input order, so probs need not be
// sorted.
func Required(probs []float64, e float64) (int64, error) {
	if err := checkConfidence(e); err != nil {
		return 0, err
	}
	for _, p := range probs {
		if p <= 0 {
			return 0, errUndetectable(e)
		}
	}
	// Faults with P_f >= 1 contribute 0 to every sum and are dropped.
	logq := make([]float64, 0, len(probs))
	for _, p := range probs {
		if p < 1 {
			logq = append(logq, math.Log1p(-p))
		}
	}
	runMax := make([]float64, len(logq))
	top := math.Inf(-1)
	for i, lq := range logq {
		top = max(top, lq)
		runMax[i] = top
	}
	return search(logq, runMax, e)
}

// RequiredFraction returns the smallest N such that the d·100% easiest
// faults are all detected with probability e — the quantity tabulated
// in Tables 2, 3 and 5 of the paper.
func RequiredFraction(probs []float64, d, e float64) (int64, error) {
	return Prepare(probs).RequiredFraction(d, e)
}

// RequiredFraction is the free RequiredFraction on the Set: Required
// over F_d, the d·100% faults with the highest detection
// probabilities, d in (0,1] (any other d selects 1), summed in
// descending order of probability.  F_d keeps at least one fault.
func (s *Set) RequiredFraction(d, e float64) (int64, error) {
	if err := checkConfidence(e); err != nil {
		return 0, err
	}
	if d <= 0 || d > 1 {
		d = 1
	}
	k := min(max(int(math.Round(d*float64(len(s.probs)))), 1), len(s.probs))
	if s.zero > 0 && k > s.certain+len(s.desc) {
		return 0, errUndetectable(e)
	}
	terms := s.desc[:min(max(k-s.certain, 0), len(s.desc))]
	return search(terms, terms, e)
}

func checkConfidence(e float64) error {
	if e <= 0 || e >= 1 {
		return fmt.Errorf("testlen: confidence %v out of (0,1)", e)
	}
	return nil
}

func errUndetectable(e float64) error {
	return fmt.Errorf("testlen: a fault has detection probability 0; no test length reaches confidence %v", e)
}

// search returns the smallest N with Σ_i log(1-(1-P_i)^N) >= log e,
// given logq[i] = log(1-P_i) of faults with 0 < P_i < 1, summed in
// order, and runMax[i], the maximum of logq[:i+1].
func search(logq, runMax []float64, e float64) (int64, error) {
	logE := math.Log(e)
	// A term whose n·log(1-p) lies below expUnderflow adds exactly -0
	// to the sum ((1-p)^n underflows to 0, and log1p(-0) = -0), so each
	// step skips the prefix of such terms: the terms up to the last
	// position where the running maximum of log(1-p) still underflows.
	// In descending order of probability, as F_d takes them, log(1-p)
	// ascends and the prefix holds every such term.
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
		top := runMax[len(runMax)-1]
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

// searchCount rounds a bracket bound of search up to a pattern count,
// at most MaxN/2 (the largest count the search evaluates).
func searchCount(x float64) int64 {
	switch {
	case !(x > 0):
		return 0
	case x >= float64(MaxN/2):
		return MaxN / 2
	}
	return int64(math.Ceil(x))
}

// Row is one entry of a test-length table.
type Row struct {
	D, E float64
	N    int64
	Err  error
}

// Table computes the paper's table layout: N for each (d, e) pair.
func Table(probs []float64, ds, es []float64) []Row {
	s := Prepare(probs)
	var rows []Row
	for _, d := range ds {
		for _, e := range es {
			n, err := s.RequiredFraction(d, e)
			rows = append(rows, Row{D: d, E: e, N: n, Err: err})
		}
	}
	return rows
}
