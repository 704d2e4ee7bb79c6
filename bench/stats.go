package main

import (
	"fmt"
	"math"
	"sort"
)

// minSamples is the fewest timed scenarios the benchmark reports on. Below
// it a median is unstable and p90 has under two samples beyond it.
const minSamples = 20

// nearestRank returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it. With
// N samples, N − ceil(p·N/100) lie strictly beyond it: at N = 100, p90 has
// exactly 10.
func nearestRank(xs []float64, p float64) float64 {
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// checkSamples refuses a sample count too small to report on.
func checkSamples(n int) error {
	if n < minSamples {
		return fmt.Errorf("%d timed scenarios requested: the benchmark needs at least %d", n, minSamples)
	}
	return nil
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// a spread computed here matches one computed from the result files with
// Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
