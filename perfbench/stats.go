package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one unlucky sample, not a tail.
const minBeyond = 10

// percentileRank returns the 1-based nearest rank of the p-th
// percentile (0 < p <= 100) in n sorted samples: the smallest rank k
// with k/n >= p/100.
func percentileRank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supports reports whether n samples leave at least minBeyond samples
// above the p-th percentile.
func supports(p float64, n int) bool {
	return n > 0 && n-percentileRank(p, n) >= minBeyond
}

// tailPercentiles are the candidates the report names the highest
// supported of.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest of the candidate percentiles
// (ascending) that n samples support, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if supports(p, n) {
			best = p
		}
	}
	return best
}

// dist is a sorted latency sample.
type dist []time.Duration

func newDist(samples ...[]time.Duration) dist {
	n := 0
	for _, s := range samples {
		n += len(s)
	}
	d := make(dist, 0, n)
	for _, s := range samples {
		d = append(d, s...)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// pctUS returns the nearest-rank p-th percentile in microseconds and
// whether the sample supports it (minBeyond samples above it; the
// median needs only one sample).
func (d dist) pctUS(p float64) (float64, bool) {
	if len(d) == 0 || (p > 50 && !supports(p, len(d))) {
		return 0, false
	}
	return float64(d[percentileRank(p, len(d))-1]) / 1e3, true
}

// ratio divides, reporting ok=false for a zero denominator: such a
// metric is not applicable to the run, not zero.
func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// median of a small set of measurements (set-up times).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
