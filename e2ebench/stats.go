package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: fewer, and the "tail" is a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted: the
// smallest sample such that at least a share q of all samples are at
// or below it. Zero samples give zero.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return sorted[k]
}

// tailQuantile returns the highest quantile, at most want, that leaves
// at least minBeyond of n samples above its rank. With fewer than 40
// samples it returns the median: no percentile of so few is a tail.
func tailQuantile(n int, want float64) float64 {
	if n-int(math.Ceil(want*float64(n))) >= minBeyond {
		return want
	}
	if n < 4*minBeyond {
		return 0.5
	}
	return float64(n-minBeyond) / float64(n)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail reports the want-quantile of xs when enough samples lie beyond
// it, otherwise the highest quantile that has them; q is the quantile
// actually reported.
func tail(xs []float64, want float64) (v, q float64) {
	s := sortedCopy(xs)
	q = tailQuantile(len(s), want)
	return percentile(s, q), q
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the first, second and third quartile of xs with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads printed here match those computed from the same values
// in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or zero when b is zero: a layer a workload does not
// exercise reads zero rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
