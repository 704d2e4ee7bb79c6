// Command bench is the end-to-end benchmark of the simulator. One process
// runs one workload at one seed:
//
//	bench -workload pod-burst -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it times scenarios with nothing attached and reports the
// end-to-end metrics. With -trace 1 it profiles and traces scenarios and
// reports the per-layer metrics. -workload all runs every workload in both
// modes, each in its own child process, and writes one set file;
// `bench compare A.json B.json` compares two set files under the bounds in
// BENCHMARK.json. Each process prints every metric as "name value unit",
// then one JSON summary line, and writes a JSON result file.
//
// It runs from the repository root, where it reads BENCHMARK.json and
// writes under .bench_build/. bench/run.sh builds it and runs it there.
// See bench/README.md for the metric catalogue and the method.
package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupChildEnv marks a child process that only sets up: it generates the
// inputs, runs the warm-up scenario, prints the digest and exits. The
// parent times it from exec to exit.
const setupChildEnv = "BENCH_SETUP_CHILD"

// resultsDir holds result files, profiles and span traces, relative to the
// repository root.
var resultsDir = filepath.Join(".bench_build", "results")

//go:embed pins.json
var pinsJSON []byte

// pins are the values measured once on the reference machine: the
// calibration kernel's time there, and the digests every workload must
// reproduce at seed 1 and at the held-out seed 2.
type pins struct {
	CalibRefS float64                      `json:"calib_ref_s"`
	Host      hostInfo                     `json:"host"`
	Digests   map[string]map[string]string `json:"digests"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	if p.CalibRefS <= 0 {
		return p, fmt.Errorf("pins.json: calib_ref_s must be positive")
	}
	return p, nil
}

// config is one workload process's settings.
type config struct {
	workload workload
	seed     int64
	seconds  time.Duration // minimum wall time of the measured pass
	trace    bool
	n        int // minimum timed scenarios (trace 0)
	tracedN  int // minimum traced scenarios (trace 1)
	obsN     int // obs-pass scenarios (trace 1)
	checkN   int // check-pass scenarios
	setups   int // cold set-ups timed in child processes (trace 0)
	outDir   string
	out      string // result file; "" = outDir/<workload>-seed<seed>-trace<t>.json
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "input seed; 1 and 2 are pinned, 2 is the held-out seed")
		seconds = fs.Int("seconds", 10, "minimum wall seconds of the timed pass (-trace 0) or the traced pass (-trace 1)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from untraced scenarios; 1: per-layer metrics from traced ones")
		n       = fs.Int("n", 100, "minimum timed scenarios, at least 20")
		out     = fs.String("out", "", "result file (default .bench_build/results/<workload>-seed<seed>-trace<t>.json)")
		repeat  = fs.Int("repeat", 1, "with -workload all: run every workload this many times")
		setPath = fs.String("set", "", "with -workload all: set file (default .bench_build/results/set-seed<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be at least 1")
		return 2
	}
	if err := checkSamples(*n); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		n: *n, tracedN: minSamples, obsN: 5, checkN: 1, setups: 5, outDir: resultsDir, out: *out,
	}
	if *name == "all" {
		return runAll(cfg, *repeat, *setPath, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg.workload = w
	if os.Getenv(setupChildEnv) == "1" {
		return runSetupChild(cfg, stdout, stderr)
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, err := runWorkload(cfg, p, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSetupChild is the body of a timed cold set-up.
func runSetupChild(cfg config, stdout, stderr io.Writer) int {
	o, err := cfg.workload.gen(cfg.seed).run(attach{})
	if err != nil {
		fmt.Fprintln(stderr, "bench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, hex.EncodeToString(o.digest[:]))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload process reports; its result file holds it
// as JSON.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"digest"`
	// Scenarios is the size of the timed pass.
	Scenarios int               `json:"scenarios"`
	Order     []string          `json:"order"`
	Metrics   map[string]metric `json:"metrics"`
	Host      hostInfo          `json:"host"`
}

type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibRefS  float64 `json:"calib_ref_s"`
	CalibS     float64 `json:"calib_s,omitempty"` // median kernel time in this run
}

func (r *result) add(name string, v float64, unit string) {
	r.Order = append(r.Order, name)
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// printResult prints every metric as "name value unit" and then the JSON
// summary line, and writes the result file.
func printResult(w io.Writer, res *result) error {
	for _, name := range res.Order {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func resultPath(cfg config) string {
	if cfg.out != "" {
		return cfg.out
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload.name, cfg.seed, t))
}

// splitLines splits process output into lines, dropping the trailing
// empty one.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}
