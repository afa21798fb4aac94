package main

import (
	"math"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile; tails need ten times that many samples.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond
// samples beyond it, and that percentile. ok is false when there are fewer
// than 10*tailBeyond samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 10*tailBeyond {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := n - tailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// tailOrMax is tail, falling back to the maximum for small samples.
func tailOrMax(xs []float64) float64 {
	if v, _, ok := tail(xs); ok {
		return v
	}
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// scaled converts durations to float64 in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sumDur returns the total of ds.
func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// perElemNs returns total time per element in nanoseconds.
func perElemNs(total time.Duration, elems int) float64 {
	if elems == 0 {
		return 0
	}
	return float64(total) / float64(elems)
}

// finite maps NaN and infinities to 0 so every reported value encodes as
// JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
