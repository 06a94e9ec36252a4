package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// smallest sample with at least q·n samples at or below it. An empty input
// yields 0.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's rank, the count that says whether that percentile is
// supported by the sample (a tail figure wants at least ten).
func beyond(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r > n {
		r = n
	}
	return n - r
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (mean of the middle pair for even n).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a window with nothing to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
