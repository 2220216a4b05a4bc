package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile in a
// sorted sample of size n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples that lie strictly after the p-th percentile's
// rank in a sample of size n.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// percentileLadder lists the tail percentiles the report considers, from
// the highest down.
var percentileLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// highestPercentile returns the highest ladder percentile that has at
// least minBeyond samples beyond it in a sample of size n, or 0 when even
// the median has fewer.
func highestPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
