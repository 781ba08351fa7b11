package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile of xs (nearest rank, no
// interpolation), or NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ruleHolds reports whether percentile p of n samples satisfies the
// percentile rule: at least minBeyond samples lie beyond its rank.
func ruleHolds(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= minBeyond
}
