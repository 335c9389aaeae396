package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail estimate from fewer samples is noise.
const tailMin = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// how many samples lie strictly beyond that rank. xs need not be sorted.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - rank - 1
}

// tailPercentile reports the q-quantile only when at least tailMin
// samples lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	v, beyond := percentile(xs, q)
	return v, beyond >= tailMin
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads this program prints are the ones the
// benchmark's bounds are judged by. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	const parts = 4
	m := n + 1
	at := func(i int) float64 {
		j := i * m / parts
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
