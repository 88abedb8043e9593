package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// pct returns the nearest-rank p-th percentile of xs (sorted ascending by
// the caller). ok is false when fewer than minBeyond samples lie beyond it.
func pct(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// miss is the latency of a request that failed or was never sent: it
// sorts after every real latency.
const miss = math.MaxInt64

// dueSample is one scheduled open-loop request: its schedule index and its
// latency from due time (miss when it failed or was never sent).
type dueSample struct{ idx, lat int64 }

// okLatencies returns the sorted latencies of the answered requests.
func okLatencies(samples []dueSample) []int64 {
	out := make([]int64, 0, len(samples))
	for _, s := range samples {
		if s.lat != miss {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// Run figures are medians across a run's rounds: a GC cycle or a stolen
// CPU slice that disturbs fewer than half of them cannot set a figure
// alone, while a regression that touches most requests moves it.

// median returns the middle value of xs, the upper one of two, or zero
// when xs is empty.
func median[T int64 | float64](xs []T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
