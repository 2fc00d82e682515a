package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is an anecdote, not a measurement.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and reports whether at least minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minTail
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same
// "exclusive" interpolation Python's statistics.quantiles(xs, n=4) uses,
// so spreads printed here agree with an analysis done there. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), nil
}

// failRatio is failed operations over attempted ones.
func failRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
