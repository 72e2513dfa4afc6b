package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 3}, 5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

// The expected quartiles are the first and last of Python's
// statistics.quantiles(xs, n=4) (method "exclusive"), the rule
// run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3.35, 2.90, 3.03, 2.74, 3.04}, 2.82, 3.195},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("one value should be its own quartiles, got %v, %v", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	descending := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{10, 50, 5},     // too few for any tail: the median's rank
		{19, 50, 10},    // 9.5 beyond p50 is under ten
		{20, 50, 10},    // exactly ten beyond p50
		{40, 75, 30},    // ten beyond p75
		{99, 75, 75},    // 9.9 beyond p90 is under ten
		{100, 90, 90},   // ten beyond p90
		{200, 95, 190},  // ten beyond p95
		{1000, 99, 990}, // ten beyond p99
		{9999, 99, 9900},
		{10000, 99.9, 9990},
	} {
		pct, v := tail(descending(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.want)
		}
	}
	if pct, v := tail(nil); pct != 50 || !math.IsNaN(v) {
		t.Errorf("tail of no samples = p%v %v, want p50 NaN", pct, v)
	}
}
