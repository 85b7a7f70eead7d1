package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// median returns the median of xs (the mean of the two middle samples for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank quantile of xs at tailPct(len(xs),
// nominal), with that percentile. Quantiles come from the raw samples.
// With too few samples for any percentile at or above the median, it
// returns the median and 50.
func tail(xs []float64, nominal float64) (value, pct float64) {
	pct = tailPct(len(xs), nominal)
	if len(xs) == 0 {
		return 0, pct
	}
	if pct < 50 {
		return median(xs), 50
	}
	return sorted(xs)[rank(len(xs), pct)-1], pct
}

// tailPct is the highest percentile, at most nominal and in steps of 0.1,
// whose nearest rank among n samples leaves at least minBeyond above it.
func tailPct(n int, nominal float64) float64 {
	if n == 0 {
		return nominal
	}
	most := math.Floor(1000*float64(n-minBeyond)/float64(n)) / 10
	return math.Min(nominal, most)
}

// rank is the 1-based nearest rank of percentile pct among n samples.
func rank(n int, pct float64) int {
	r := int(math.Ceil(pct / 100 * float64(n)))
	return max(1, min(n, r))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (a counter that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
