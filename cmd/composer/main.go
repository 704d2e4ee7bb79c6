// Command composer composes one of the paper's host configurations and
// runs a deep-learning training job on it, printing the measured summary —
// the CLI equivalent of one cell of the paper's evaluation grid.
//
// -config and -model accept comma-separated lists; a multi-cell grid runs
// on the parallel experiment runner with shared-run deduplication.
// -random leaves the paper grid entirely: it generates seeded random
// scenarios (internal/scengen) and runs each under the full invariant
// probe set.
//
// Usage:
//
//	composer -config falconGPUs -model BERT-L -iters 30
//	composer -config localGPUs  -model ResNet-50 -precision fp32 -strategy DP
//	composer -config localGPUs,falconGPUs -model ResNet-50,BERT-L -parallel 4
//	composer -random 42 -n 20
//	composer -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/experiments"
	"composable/internal/gpu"
	"composable/internal/scengen"
	"composable/internal/sim"
	"composable/internal/train"
)

func main() {
	// The CLI's only wall-clock read: everything below reports elapsed
	// time through this injected clock (the pattern mcs.Server.clock
	// established), so tests run against a fake clock and the lint
	// allowlist stays one line long.
	//lint:allow nowallclock(sole telemetry clock injection point of the composer binary)
	os.Exit(run(os.Args[1:], time.Now, os.Stdout, os.Stderr))
}

// run is the testable main: it parses args, dispatches to the list /
// random / single-cell / grid paths, and returns the process exit code.
// clock feeds the elapsed-time telemetry lines; simulation results never
// depend on it.
func run(args []string, clock func() time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("composer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfgNames  = fs.String("config", "localGPUs", "host configuration(s), comma-separated (Table III labels)")
		modelName = fs.String("model", "ResNet-50", "benchmark(s), comma-separated (Table II names)")
		precision = fs.String("precision", "fp16", "fp16 or fp32")
		strategy  = fs.String("strategy", "DDP", "DDP or DP")
		sharded   = fs.Bool("sharded", false, "enable ZeRO-2 sharded training")
		batch     = fs.Int("batch", 0, "per-GPU batch (0 = paper default)")
		epochs    = fs.Int("epochs", 0, "epochs (0 = paper default)")
		iters     = fs.Int("iters", 30, "iterations per (scaled) epoch")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "grid worker-pool width (1 = sequential)")
		list      = fs.Bool("list", false, "list configurations and models")
		topo      = fs.Bool("topology", false, "print chassis topology before running (single cell only)")
		dot       = fs.Bool("dot", false, "print the fabric as Graphviz and exit (single cell only)")
		csvSeries = fs.String("csv", "", "after training, dump this telemetry series as CSV (e.g. gpu_util; single cell only)")
		randSeed  = fs.Int64("random", 0, "run seeded random scenarios from this base seed instead of the paper grid")
		randN     = fs.Int("n", 10, "with -random: number of scenarios")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	randomMode := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "random" {
			randomMode = true
		}
	})

	if *list {
		fmt.Fprintln(stdout, "configurations (Table III):")
		for _, c := range cluster.TableIIIConfigs() {
			fmt.Fprintf(stdout, "  %-12s %s\n", c.Name, c.Description())
		}
		fmt.Fprintln(stdout, "models (Table II):")
		for _, w := range dlmodel.Benchmarks() {
			fmt.Fprintf(stdout, "  %-12s %-16s %5.1fM params, batch %d, %d epochs\n",
				w.Name, w.Domain, float64(w.Graph.Params())/1e6, w.BatchPerGPU, w.Epochs)
		}
		return 0
	}

	if randomMode {
		return runRandom(*randSeed, *randN, clock, stdout, stderr)
	}

	cfgs, models, err := parseGrid(*cfgNames, *modelName)
	if err != nil {
		fmt.Fprintln(stderr, "composer:", err)
		return 1
	}

	var prec gpu.Precision
	switch *precision {
	case "fp16":
		prec = gpu.FP16
	case "fp32":
		prec = gpu.FP32
	default:
		fmt.Fprintf(stderr, "composer: unknown precision %q (fp16 or fp32)\n", *precision)
		return 1
	}
	if s := train.Strategy(*strategy); s != train.DDP && s != train.DP {
		fmt.Fprintf(stderr, "composer: unknown strategy %q (DDP or DP)\n", *strategy)
		return 1
	}
	opts := train.Options{
		Precision:     prec,
		Strategy:      train.Strategy(*strategy),
		Sharded:       *sharded,
		BatchPerGPU:   *batch,
		Epochs:        *epochs,
		ItersPerEpoch: *iters,
	}

	if len(cfgs) == 1 && len(models) == 1 {
		return runSingle(cfgs[0], models[0], opts, *topo, *dot, *csvSeries, stdout, stderr)
	}
	if *topo || *dot || *csvSeries != "" {
		fmt.Fprintln(stderr, "composer: -topology, -dot and -csv need a single cell (one -config, one -model)")
		return 1
	}
	return runGrid(cfgs, models, opts, *parallel, clock, stdout, stderr)
}

// parseGrid expands the comma-separated -config and -model lists.
func parseGrid(cfgNames, modelNames string) ([]cluster.Config, []dlmodel.Workload, error) {
	var cfgs []cluster.Config
	for _, name := range strings.Split(cfgNames, ",") {
		cfg, err := configByName(strings.TrimSpace(name))
		if err != nil {
			return nil, nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	var models []dlmodel.Workload
	for _, name := range strings.Split(modelNames, ",") {
		w, err := dlmodel.BenchmarkByName(strings.TrimSpace(name))
		if err != nil {
			return nil, nil, err
		}
		models = append(models, w)
	}
	return cfgs, models, nil
}

// runRandom executes n seeded random scenarios under the invariant probe
// set — the CLI face of the TestScenarioSweep tier.
func runRandom(seed int64, n int, clock func() time.Time, stdout, stderr io.Writer) int {
	if n < 1 {
		fmt.Fprintln(stderr, "composer: -n must be at least 1")
		return 1
	}
	runErrors, violated := 0, 0
	start := clock()
	for i := 0; i < n; i++ {
		sc := scengen.FromSeed(seed + int64(i))
		o, err := scengen.Run(sc)
		if err != nil {
			fmt.Fprintf(stderr, "composer: seed %d: %v\n", sc.Seed, err)
			runErrors++
			continue
		}
		res := o.Result
		fmt.Fprintf(stdout, "seed %-6d %-70s total %12v  avg %10v/iter  gpu %5.1f%%\n",
			sc.Seed, sc.ID(), res.TotalTime, res.AvgIter, res.AvgGPUUtil*100)
		if err := o.Err(); err != nil {
			fmt.Fprintf(stderr, "composer: seed %d: %v\n", sc.Seed, err)
			violated++
		}
	}
	invariants := "held"
	if violated > 0 {
		invariants = fmt.Sprintf("violated on %d", violated)
	}
	fmt.Fprintf(stdout, "--- %d scenarios in %v, %d failed to run, invariants %s\n",
		n, clock().Sub(start).Round(time.Millisecond), runErrors, invariants)
	if runErrors > 0 || violated > 0 {
		return 1
	}
	return 0
}

// runSingle is the classic one-cell path, with the system-level inspection
// surfaces (topology, Graphviz) only a directly composed system offers.
func runSingle(cfg cluster.Config, w dlmodel.Workload, opts train.Options, topo, dot bool, csvSeries string, stdout, stderr io.Writer) int {
	sys, err := cluster.Compose(sim.NewEnv(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "composer:", err)
		return 1
	}
	if topo {
		fmt.Fprint(stdout, sys.Chassis.Topology())
	}
	if dot {
		fmt.Fprint(stdout, sys.Net.Dot(cfg.Name))
		return 0
	}

	opts.Workload = w
	res, err := train.Run(sys, opts)
	if err != nil {
		fmt.Fprintln(stderr, "composer:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s on %s (%s/%v%s, batch %d/GPU)\n",
		res.Workload, res.System, res.Strategy, res.Precision, shardedTag(res.Sharded), res.BatchPerGPU)
	fmt.Fprintf(stdout, "  total time      %v (%d iters, avg %v/iter)\n", res.TotalTime, res.Iters, res.AvgIter)
	for i, e := range res.EpochTimes {
		fmt.Fprintf(stdout, "  epoch %-2d        %v\n", i+1, e)
	}
	fmt.Fprintf(stdout, "  GPU util        %.1f%%   GPU mem %.1f%% (peak %v)\n",
		res.AvgGPUUtil*100, res.AvgGPUMemUtil*100, res.PeakGPUMem)
	fmt.Fprintf(stdout, "  CPU util        %.1f%%   host mem %.1f%%\n", res.AvgCPUUtil*100, res.AvgHostMemUtil*100)
	if res.FalconPCIeGBps > 0 {
		fmt.Fprintf(stdout, "  falcon PCIe     %.2f GB/s (slot ports, in+out)\n", res.FalconPCIeGBps)
	}
	if s := res.Samples.Series(train.SeriesGPUUtil); s != nil && s.Len() > 0 {
		fmt.Fprintf(stdout, "  GPU util trace  |%s|\n", s.Sparkline(60))
	}
	if csvSeries != "" {
		s := res.Samples.Series(csvSeries)
		if s == nil {
			fmt.Fprintf(stderr, "composer: no telemetry series %q (have %v)\n", csvSeries, res.Samples.Names())
			return 1
		}
		fmt.Fprint(stdout, s.CSV())
	}
	return 0
}

// runGrid runs the config × model cross product as ad-hoc experiments on
// the parallel runner: cells sharing a training run deduplicate through
// the session, and the report order matches the requested grid order.
func runGrid(cfgs []cluster.Config, models []dlmodel.Workload, opts train.Options, parallelism int, clock func() time.Time, stdout, stderr io.Writer) int {
	scale := experiments.Scale{
		Name:          "cli",
		ItersPerEpoch: opts.ItersPerEpoch,
		MaxEpochs:     1 << 30, // grid cells keep the workloads' paper epochs
	}
	session := experiments.NewSession(scale)

	var cells []experiments.Experiment
	for _, cfg := range cfgs {
		for _, w := range models {
			cfg, w := cfg, w
			cells = append(cells, experiments.Experiment{
				ID:    fmt.Sprintf("%s/%s", cfg.Name, w.Name),
				Title: fmt.Sprintf("%s on %s", w.Name, cfg.Name),
				Run: func(s *experiments.Session) (string, error) {
					res, err := s.RunOpts(cfg, w, opts)
					if err != nil {
						return "", err
					}
					return summarize(res), nil
				},
			})
		}
	}

	start := clock()
	reports, err := experiments.NewRunner(session, cells).RunAll(context.Background(), parallelism)
	wall := clock().Sub(start)
	failed := false
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(stderr, "composer: %v\n", r.Err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "=== %s (ran in %v)\n%s", r.Title, r.Elapsed.Round(time.Millisecond), r.Output)
	}
	if err != nil || failed {
		return 1
	}
	st := session.Stats()
	fmt.Fprintf(stdout, "--- %d cells in %v: %d training runs, %d cache hits, %d deduplicated joins\n",
		len(reports), wall.Round(time.Millisecond), st.TrainRuns, st.CacheHits, st.Joins)
	return 0
}

// summarize renders one grid cell's result compactly.
func summarize(res *train.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %s/%v%s batch %d/GPU: total %v (%d iters, avg %v/iter)\n",
		res.Strategy, res.Precision, shardedTag(res.Sharded), res.BatchPerGPU,
		res.TotalTime, res.Iters, res.AvgIter)
	fmt.Fprintf(&b, "  GPU util %.1f%%  GPU mem %.1f%%  CPU %.1f%%  host mem %.1f%%",
		res.AvgGPUUtil*100, res.AvgGPUMemUtil*100, res.AvgCPUUtil*100, res.AvgHostMemUtil*100)
	if res.FalconPCIeGBps > 0 {
		fmt.Fprintf(&b, "  falcon PCIe %.2f GB/s", res.FalconPCIeGBps)
	}
	fmt.Fprintln(&b)
	return b.String()
}

func configByName(name string) (cluster.Config, error) {
	for _, c := range cluster.TableIIIConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return cluster.Config{}, fmt.Errorf("unknown configuration %q (see -list)", name)
}

func shardedTag(s bool) string {
	if s {
		return "+sharded"
	}
	return ""
}
