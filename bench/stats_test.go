package main

import (
	"io"
	"math"
	"math/rand"
	"testing"
)

func TestTailRuleAtHundred(t *testing.T) {
	xs := make([]float64, 100)
	for i, v := range rand.New(rand.NewSource(1)).Perm(len(xs)) {
		xs[i] = float64(v + 1)
	}
	p90 := nearestRank(xs, 90)
	n := 0
	for _, x := range xs {
		if x > p90 {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("p90 of 100 samples has %d beyond it, want exactly 10", n)
	}
	if got := nearestRank(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}

func TestRefusesFewerThanTwentyScenarios(t *testing.T) {
	if checkSamples(minSamples-1) == nil || checkSamples(minSamples) != nil {
		t.Fatalf("checkSamples must refuse %d and accept %d", minSamples-1, minSamples)
	}
	if code := run([]string{"-workload", "pod-burst", "-n", "19"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("-n 19 exited %d, want 2", code)
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how spreads are computed from result files.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 12, 11, 13, 15}, 10.5, 14},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
