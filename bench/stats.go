package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The slack absorbs the error of p/100, which is not exact in binary.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a tail report may use.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it; ok is false when even the
// median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		beyond := n - int(math.Ceil(c/100*float64(n)-1e-9))
		if beyond < 10 {
			break
		}
		p, ok = c, true
	}
	return p, ok
}

func sortedCopyOf(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopyOf(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, ss := mean(xs), 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}
