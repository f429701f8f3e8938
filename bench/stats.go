package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// and whether at least ten samples lie beyond it — the condition under
// which a tail percentile is worth reporting.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= 10
}

// geoMean returns the geometric mean of xs.
func geoMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailMean returns the mean of the slowest share of xs.
func tailMean(xs []float64, share float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := max(1, int(math.Ceil(share*float64(len(s)))))
	sum := 0.0
	for _, x := range s[len(s)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// covered returns how much of parent's interval the children cover,
// counting time where children overlap only once.
func covered(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64 = 0, math.MinInt64
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}
