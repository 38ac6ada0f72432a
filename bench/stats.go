package main

import (
	"math"
	"slices"
	"time"
)

// Latencies are kept as raw nanosecond samples, one int64 per operation,
// and sorted once at the end: obs.DurationBuckets starts at 50 µs, which
// is coarser than the 14 µs path serve-hot measures.

// percentile returns the q-quantile (0 < q <= 1) of ascending samples by
// the nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortSamples sorts in place and returns its argument.
func sortSamples(s []int64) []int64 {
	slices.Sort(s)
	return s
}

// median of a copy of vs, as the mean of the two middle values when the
// count is even; iteration workloads have too few samples to waste one.
func median[T int64 | float64 | time.Duration](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
