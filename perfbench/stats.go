package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the usual midpoint median (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
