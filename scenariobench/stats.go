package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spread is judged. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const parts = 4
		m := len(s) + 1
		j := i * m / parts
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPerMille are the percentiles a tail is reported at, in tenths of
// a percent (exact integers), highest first.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest of tailPerMille that leaves at least ten
// samples beyond it, as a percentile, and the nearest-rank value there.
// With fewer than twenty samples none qualifies and tail returns the
// median's rank (p50), so the caller always gets a value; the sample
// count reported beside it says how far to trust it.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 50, math.NaN()
	}
	pm := 500
	for _, p := range tailPerMille {
		if len(s)*(1000-p) >= 10*1000 {
			pm = p
			break
		}
	}
	rank := (pm*len(s) + 999) / 1000 // ceil(pm/1000 * n), at least 1
	return float64(pm) / 10, s[rank-1]
}
