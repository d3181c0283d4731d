package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail value:
// the benchmark reports the highest percentile (at most the 99th) with
// at least this many samples above it, so a tail is never one outlier.
const tailMin = 10

// dist is an exact sample distribution (no bucketing, so two runs never
// read identically by rounding).
type dist []float64

// sorted returns the samples in ascending order.
func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// median of the samples (NaN when empty).
func (d dist) median() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the smallest sample with at least a share q of the
// samples at or below it (NaN when empty).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// tail returns the 99th percentile, or the highest percentile that still
// has tailMin samples beyond it when there are too few samples for the
// 99th, together with the percentile actually reported. ok is false when
// fewer than tailMin+1 samples exist.
func (d dist) tail() (v, pct float64, ok bool) {
	n := len(d)
	if n <= tailMin {
		return math.NaN(), 0, false
	}
	s := d.sorted()
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if last := n - 1 - tailMin; idx > last {
		idx = last
	}
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

// ratio is a/b, or 0 when b is 0 (a count-based share with no base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
