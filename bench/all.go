package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is what a set file holds: every run of one `-workload all`
// invocation. `bench compare` reads two of them.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload in both modes, each in its own child process
// so no workload inherits another's heap, and writes the set file. Every
// metric is printed as "workload name value unit"; the summary line keys
// the metrics "workload/name", with the median over repeats.
func runAll(cfg config, repeat int, setPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if setPath == "" {
		setPath = filepath.Join(cfg.outDir, fmt.Sprintf("set-seed%d.json", cfg.seed))
	}
	var set resultSet
	code := 0
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				out := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d-rep%d.json", w.name, cfg.seed, trace, rep))
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "-trace", strconv.Itoa(trace),
					"-n", strconv.Itoa(cfg.n), "-out", out)
				cmd.Stderr = stderr
				text, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s -trace %d: %v\n", w.name, trace, err)
					code = 1
					continue
				}
				lines := splitLines(string(text))
				for _, l := range lines[:len(lines)-1] {
					fmt.Fprintf(stdout, "%s %s\n", w.name, l)
				}
				res, err := readResult(out)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					code = 1
					continue
				}
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if err := writeJSON(setPath, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: code == 0, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for _, r := range set.Runs {
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		summary.Correct = summary.Correct && r.Correct
		for name, m := range r.Metrics {
			key := r.Workload + "/" + name
			values[key] = append(values[key], m.Value)
			summary.Metrics[key] = metric{Unit: m.Unit}
		}
	}
	for key, vs := range values {
		summary.Metrics[key] = metric{Value: median(vs), Unit: summary.Metrics[key].Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	fmt.Fprintf(stderr, "bench: set file %s\n", setPath)
	return code
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
