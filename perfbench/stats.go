package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice.
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

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest value of xs, or NaN for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile.
const tailSamples = 10

// tail returns the highest percentile of xs that still has at least
// tailSamples samples beyond it: the order statistic at ascending index
// n-1-tailSamples, reported as the percentage of samples at or below it.
// ok is false when there are too few samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return 0, 0, false
	}
	i := n - 1 - tailSamples
	return sorted(xs)[i], 100 * float64(i+1) / float64(n), true
}
