package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workloads
// and metrics, with the bound by which each end-to-end metric may worsen.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints one row per (workload, end-to-end metric) of two set
// files, A the base and B the change.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := readSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-15s %-15s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-15s %-15s %s\n", w.Name, m.Name, "missing")
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "%-15s %-15s %12.6g %12.6g %+7.1f%% %8s %8s  %s\n",
				w.Name, m.Name, ma, mb, 100*(mb-ma)/ma, percent(spread(va)), percent(spread(vb)), verdict(va, vb, m))
		}
	}
	return 0
}

// percent formats a spread; a single run has none.
func percent(s float64) string {
	if math.IsInf(s, 1) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}

// values collects one metric of one workload over the runs of a set.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict classifies B against A under the metric's bound. The row is
// unresolved when either side's run-to-run spread (interquartile range
// over median) exceeds the bound, unless every run of one side beats every
// run of the other; with fewer than two runs a side's spread is unknown.
// A resolved row is better or worse when the medians differ by more than
// the bound, and unchanged otherwise.
func verdict(a, b []float64, m specMetric) string {
	sign := 1.0 // +1: a rise is worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse := sign * (mb - ma) / math.Abs(ma)
	if (spread(a) > m.Bound || spread(b) > m.Bound) && !dominates(a, b, sign) && !dominates(b, a, sign) {
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// dominates reports whether every run of x beats every run of y, given
// sign +1 when lower is better. Each side needs at least two runs.
func dominates(x, y []float64, sign float64) bool {
	if len(x) < 2 || len(y) < 2 {
		return false
	}
	for _, vx := range x {
		for _, vy := range y {
			if sign*vx >= sign*vy {
				return false
			}
		}
	}
	return true
}
