package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer is a reading of single outliers.
const minBeyond = 10

// nearestRank returns the q-quantile of sorted by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it.
// It returns 0 for an empty sample.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailRank returns the 1-based nearest rank of the tail percentile of
// n samples: the rank of the want-quantile, lowered until at least
// minBeyond samples lie above it. When the sample is too small for any
// rank above the median to qualify it returns the median's rank, so the
// tail degrades to the median rather than to a single outlier.
func tailRank(n int, want float64) int {
	if n == 0 {
		return 0
	}
	med := (n + 1) / 2
	r := int(math.Ceil(want * float64(n)))
	if r > n-minBeyond {
		r = n - minBeyond
	}
	if r < med {
		r = med
	}
	return r
}

// summary is a latency sample reduced to what the benchmark reports.
type summary struct {
	N     int     // samples
	P50   float64 // median
	TailQ float64 // quantile the tail was read at
	Tail  float64 // value at TailQ
}

// summarize sorts a copy of xs and reads its median and its tail at the
// highest quantile up to want that keeps minBeyond samples above it.
func summarize(xs []float64, want float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: nearestRank(s, 0.5)}
	if r := tailRank(len(s), want); r > 0 {
		out.TailQ = float64(r) / float64(len(s))
		out.Tail = s[r-1]
	}
	return out
}

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// quartileSpread returns (Q3-Q1)/median of xs with the exclusive
// quartile method of Python's statistics.quantiles(n=4), the spread the
// run-to-run stability check uses. It returns 0 for fewer than two
// samples or a zero median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := exclusiveQuantile(s, 2)
	if med == 0 {
		return 0
	}
	return (exclusiveQuantile(s, 3) - exclusiveQuantile(s, 1)) / med
}

// exclusiveQuantile returns the i-th of the three quartile cut points
// of sorted (Python's "exclusive" method: position i·(n+1)/4, linearly
// interpolated, clamped to the sample).
func exclusiveQuantile(sorted []float64, i int) float64 {
	n := len(sorted)
	pos := float64(i*(n+1)) / 4
	j := int(math.Floor(pos))
	delta := pos - float64(j)
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
}
