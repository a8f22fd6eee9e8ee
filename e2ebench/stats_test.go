package main

import (
	"math"
	"testing"
)

func TestPercentileByHand(t *testing.T) {
	// Nearest rank over five sorted samples: the q-quantile is the
	// ceil(5q)-th smallest.
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {0.05, 15}, {0.2, 15}, {0.3, 20}, {0.4, 20},
		{0.5, 35}, {0.75, 40}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median of 1,3,5,9 = %v, want 3 (the 2nd smallest)", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99},       // ranks 991..1000 lie beyond p99
		{5000, 0.99},       // plenty
		{999, 989.0 / 999}, // only 9 beyond p99: fall back to rank 989
		{100, 0.9},         // p90 is the highest with 10 beyond
		{40, 0.75},         // the smallest sample count with a tail
		{39, 0.5},          // under 40 samples: the median alone
		{0, 0.5},
	} {
		got := tailQuantile(c.n, 0.99)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 40 {
			k := int(math.Ceil(got * float64(c.n)))
			if beyond := c.n - k; beyond < minBeyond {
				t.Errorf("n=%d: quantile %v leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1
	}
	if v, q := tail(xs, 0.99); v != 990 || q != 0.99 {
		t.Errorf("tail of 1..1000 = %v at q %v, want 990 at 0.99", v, q)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 3, 7}, [3]float64{1, 3, 7}},
		{[]float64{5, 1, 4, 2, 3, 9.5}, [3]float64{1.75, 3.5, 6.125}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{0, 1, 2, 4, math.Inf(1)}
	counts := []uint64{50, 40, 9, 1}
	// 99 of 100 samples lie below 4: p99 is the third bucket's upper bound.
	if got := histQuantile(bounds, counts, 0.99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
	if got := histQuantile(bounds, counts, 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// The open-ended top bucket reports its lower bound.
	if got := histQuantile(bounds, counts, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}
