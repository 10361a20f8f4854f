package main

import (
	"fmt"
	"sort"
)

// pct is one rung of the percentile ladder, as the fraction num/den.
type pct struct {
	label    string
	num, den int
}

// ladder lists the percentiles a timing may be reported at, lowest
// first.
var ladder = []pct{
	{"p50", 50, 100},
	{"p90", 90, 100},
	{"p99", 99, 100},
	{"p99.9", 999, 1000},
	{"p99.99", 9999, 10000},
}

// rank is the 1-based nearest-rank position of percentile q among n
// sorted samples: ceil(n*q).
func rank(n int, q pct) int {
	return (n*q.num + q.den - 1) / q.den
}

// supported reports whether n samples leave at least ten beyond the
// percentile q; a tail figure with fewer behind it is one outlier, not
// a percentile.
func supported(n int, q pct) bool {
	return n > 0 && n-rank(n, q) >= 10
}

// quantile returns the nearest-rank percentile q of sorted samples.
func quantile(sorted []float64, q pct) float64 {
	k := rank(len(sorted), q)
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// highest returns the highest ladder percentile that n samples
// support, or false when not even the median does.
func highest(n int) (pct, bool) {
	best, ok := pct{}, false
	for _, q := range ladder {
		if supported(n, q) {
			best, ok = q, true
		}
	}
	return best, ok
}

// timing is a set of duration samples in microseconds.
type timing []float64

// summary sorts t and returns its median, p99 and highest supported
// percentile. It fails when the sample cannot support p99, because
// every timing the benchmark gates is reported at p99.
func (t timing) summary() (p50, p99 float64, top pct, topV float64, err error) {
	sort.Float64s(t)
	p99q := ladder[2]
	if !supported(len(t), p99q) {
		return 0, 0, pct{}, 0, fmt.Errorf("%d samples cannot support p99 (need %d beyond it)", len(t), 10)
	}
	top, _ = highest(len(t))
	return quantile(t, ladder[0]), quantile(t, p99q), top, quantile(t, top), nil
}

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even), leaving xs unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
