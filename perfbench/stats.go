package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a percentile with fewer samples beyond it is a handful of outliers, not a
// distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and the number of samples strictly beyond that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small slack keeps p·n/100 that should be whole (99.9 × 1000) from
// rounding up past it.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest of tailPercentiles that still has at
// least minBeyond samples beyond it in a sample of n. ok is false when not
// even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencySummary is a timing reported the way the benchmark reports every
// timing: its median, its tail at the highest percentile with minBeyond
// samples beyond it, and the sample count.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Beyond int     `json:"tail_beyond,omitempty"`
}

func summarize(xs []float64) latencySummary {
	s := sortedCopy(xs)
	ls := latencySummary{N: len(s), P50: median(s)}
	if p, ok := tailPercentile(len(s)); ok {
		ls.TailP = p
		ls.Tail, ls.Beyond = percentile(s, p)
	}
	return ls
}
