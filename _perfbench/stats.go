package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for the percentile to count as measured.
const minBeyond = 10

// tailLevels are the percentiles a tail metric may report, highest
// first. A metric named p99 reports the highest of these its sample
// count supports.
var tailLevels = []float64{99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supportedTail returns the highest level in tailLevels that leaves at
// least minBeyond samples above it, or false when none does.
func supportedTail(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile p of vals (not modified).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tail reports the highest supported percentile of vals and its level.
// Too few samples for any level fall back to the median, reported as
// level 50.
func tail(vals []float64) (value, level float64) {
	p, ok := supportedTail(len(vals))
	if !ok {
		return median(vals), 50
	}
	return percentile(vals, p), p
}

func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
