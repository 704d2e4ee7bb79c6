package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "scenario_s_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "sim_speed", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", []float64{1, 1.01, 0.99, 1}, []float64{1, 1.02, 0.98, 1}, lower, "unchanged"},
		{"slower beyond the bound", []float64{1, 1.01, 0.99, 1}, []float64{1.3, 1.31, 1.29, 1.3}, lower, "worse"},
		{"faster beyond the bound", []float64{1, 1.01, 0.99, 1}, []float64{0.7, 0.71, 0.69, 0.7}, lower, "better"},
		{"higher is better", []float64{100, 101, 99, 100}, []float64{130, 131, 129, 130}, higher, "better"},
		{"noisy and overlapping", []float64{1, 1.4, 0.7, 1.1}, []float64{1.2, 1.5, 0.9, 1.3}, lower, "unresolved"},
		{"noisy but every B run beats every A run", []float64{2, 2.6, 1.6, 2.2}, []float64{1, 1.4, 0.7, 1.1}, lower, "better"},
		{"one run has no spread", []float64{1}, []float64{1.3}, lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
