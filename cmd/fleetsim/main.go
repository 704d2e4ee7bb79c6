// Command fleetsim drives the fleet orchestrator through seeded
// scenarios: a job stream and a composable fleet drawn from a seed,
// scheduled under a placement policy with dynamic GPU recomposition and
// the full fleet invariant probe set. Three modes share one flag set
// and one scenario builder; only the report differs:
//
//	fleetsim -seed 1 -fingerprint             # run (default): per-job and fleet telemetry
//	fleetsim -seed 7 -hosts 3 -gpus 12 -warm  # override the fleet shape
//	fleetsim -seed 1 -pods 4 -chassis-per-pod 3 -oversub 8   # or -pod: seeded spine/leaf fleet
//	fleetsim -seed 1 -fault-seed 2 -slo "p99-wait<=1m util>=0.2"   # seeded faults, SLO verdict
//	fleetsim chaos -seed 1 -retries 1         # the seed's own faults: plan, recovery, timeline
//	fleetsim analyze -seed 1 -trace run.json  # analytics report only
//	fleetsim analyze -file run.json -json -top 10   # ... of an exported trace
//
// The same flags always print the same bytes. Exit codes: 0 success,
// 1 run, I/O or invariant failure, 2 bad flags, 3 SLO violated.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config holds the parsed flags of every mode.
type config struct {
	mode                                          string
	seed, faultSeed                               int64
	policy, traceOut, metricsOut, file, outPath   string
	hosts, gpus, jobs, attachMS, pods, cpp, top   int
	retries, metricsIvMS                          int
	oversub                                       float64
	pod, warm, fingerprint, listPol, report, json bool
	slo                                           analyze.SLO
}

// parse splits off the leading mode and parses the flags (code 2: rejected).
func parse(args []string, stderr io.Writer) (cfg config, code int) {
	usage := func(err any) (config, int) {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return cfg, 2
	}
	cfg.mode = "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if args[0] != "chaos" && args[0] != "analyze" {
			return usage(fmt.Sprintf("unknown mode %q (want chaos or analyze, or no mode to run)", args[0]))
		}
		cfg.mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("fleetsim "+cfg.mode, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&cfg.seed, "seed", 1, "scenario seed (job stream, fleet shape, policy)")
	fs.StringVar(&cfg.policy, "policy", "", "override the placement policy (see -list-policies)")
	fs.IntVar(&cfg.hosts, "hosts", 0, "override the host count (1-3)")
	fs.IntVar(&cfg.gpus, "gpus", 0, "override the chassis GPU inventory (2-16)")
	fs.IntVar(&cfg.jobs, "jobs", 0, "trim the stream to this many jobs")
	fs.IntVar(&cfg.attachMS, "attach-ms", -1, "override the per-device recomposition latency in ms (0 = free)")
	fs.BoolVar(&cfg.warm, "warm", false, "preattach GPUs round-robin (a warm fleet) regardless of the seed's draw")
	fs.BoolVar(&cfg.pod, "pod", false, "draw a pod-shaped (multi-chassis spine/leaf) scenario from the seed")
	fs.IntVar(&cfg.pods, "pods", 0, "override the pod count (selects the pod shape, 1-4)")
	fs.IntVar(&cfg.cpp, "chassis-per-pod", 0, "override the chassis per pod (selects the pod shape, 1-3)")
	fs.Float64Var(&cfg.oversub, "oversub", 0, "override the spine oversubscription ratio (pod shape, 1-16)")
	fs.Int64Var(&cfg.faultSeed, "fault-seed", 0, "arm the fault schedule drawn from this seed (0 = none, or in chaos mode the scenario seed's own schedule)")
	fs.IntVar(&cfg.retries, "retries", 0, "per-job retry budget after fault kills (0 = default 3, negative = no retries)")
	fs.BoolVar(&cfg.fingerprint, "fingerprint", false, "print the canonical telemetry fingerprint after the report")
	fs.BoolVar(&cfg.listPol, "list-policies", false, "list placement policies and exit")
	fs.StringVar(&cfg.traceOut, "trace", "", "write a Chrome trace_event JSON of the run to this file (load in Perfetto, re-analyze with analyze -file)")
	fs.StringVar(&cfg.metricsOut, "metrics", "", "write the sampled metrics series as CSV to this file")
	fs.IntVar(&cfg.metricsIvMS, "metrics-interval", 0, "metrics sampling interval in sim-time ms (default 100)")
	fs.BoolVar(&cfg.report, "report", false, "print the trace-analytics report (attribution, percentiles) after the run")
	fs.IntVar(&cfg.top, "top", 5, "show the N slowest jobs in the analytics report")
	sloSpec := fs.String("slo", "", `evaluate this SLO and exit 3 on violation, e.g. "p99-wait<=1m util>=0.2 max-failed<=0"`)
	fs.StringVar(&cfg.file, "file", "", "analyze mode: read this exported Chrome trace instead of running a scenario")
	fs.BoolVar(&cfg.json, "json", false, "analyze mode: emit the machine-readable JSON report instead of text")
	fs.StringVar(&cfg.outPath, "o", "", "analyze mode: write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return cfg, 2
	}
	var err error
	if cfg.slo, err = analyze.ParseSLO(*sloSpec); err != nil {
		return usage(err)
	}
	if cfg.mode != "analyze" && (cfg.file != "" || cfg.json || cfg.outPath != "") {
		return usage("-file, -json and -o need the analyze mode")
	}
	if _, err := orchestrator.PolicyByName(cfg.policy); cfg.policy != "" && err != nil {
		return usage(err)
	}
	return cfg, 0
}

// scenario builds the fleet scenario every mode runs: the seed's fleet
// with the overrides applied, and the plan -fault-seed names (in chaos
// mode without one, the seed's own plan).
func scenario(cfg config) scengen.FleetScenario {
	sc := scengen.FleetFromSeed(cfg.seed)
	if cfg.pod {
		sc = scengen.PodFleetFromSeed(cfg.seed)
	}
	if cfg.policy != "" {
		sc.Policy = cfg.policy
	}
	if cfg.hosts != 0 {
		sc.Hosts = cfg.hosts
	}
	if cfg.gpus != 0 {
		sc.GPUs = cfg.gpus
	}
	if cfg.pods != 0 { // either count selects the pod shape; SanitizeFleet sets the other
		sc.Pods = cfg.pods
	}
	if cfg.cpp != 0 {
		sc.ChassisPerPod = cfg.cpp
	}
	if cfg.oversub != 0 {
		sc.Oversubscription = cfg.oversub
	}
	if cfg.jobs > 0 && cfg.jobs < len(sc.Jobs) {
		sc.Jobs = sc.Jobs[:cfg.jobs]
	}
	switch {
	case cfg.attachMS == 0:
		sc.AttachLatency = -1 // free recomposition
	case cfg.attachMS > 0:
		sc.AttachLatency = time.Duration(cfg.attachMS) * time.Millisecond
	}
	if cfg.warm {
		sc.Preattach = true
	}
	// The plan is drawn against the sanitized fleet's bounds.
	sc = scengen.SanitizeFleet(sc)
	sc.MaxRetries = cfg.retries
	switch {
	case cfg.faultSeed != 0:
		sc.Plan = scengen.PlanForFleet(cfg.faultSeed, sc)
	case cfg.mode != "chaos": // run and analyze default to fault-free
	case sc.Pods != 0 || sc.ChassisPerPod != 0:
		// The seed's own plan knows no pods or spine links: draw against
		// the pod-shaped bounds so the pod-scoped fault kinds are in play.
		sc.Plan = scengen.PlanForFleet(cfg.seed, sc)
	default:
		sc.Plan = scengen.FaultsFromSeed(cfg.seed).Plan
	}
	return scengen.SanitizeFleet(sc)
}

// run is the testable main; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, code := parse(args, stderr)
	if code != 0 {
		return code
	}
	fail := func(err ...any) int {
		fmt.Fprintln(stderr, append([]any{"fleetsim:"}, err...)...)
		return 1
	}
	if cfg.listPol {
		for _, p := range orchestrator.Policies() {
			fmt.Fprintf(stdout, "%s\n", p.Name())
		}
		return 0
	}
	if cfg.file != "" {
		f, err := os.Open(cfg.file)
		if err != nil {
			return fail(err)
		}
		tr, err := analyze.ReadTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		return analysis(cfg, tr, nil, stdout, stderr)
	}

	sc := scenario(cfg)
	if cfg.mode == "chaos" {
		fmt.Fprintf(stdout, "chaossim scenario %s-f%d (seed %d)\n\nfault plan:\n", sc.ID(), len(sc.Plan.Events), cfg.seed)
		if len(sc.Plan.Events) == 0 {
			fmt.Fprintf(stdout, "  (empty — fault-free run)\n")
		}
		for _, e := range sc.Plan.Events {
			fmt.Fprintf(stdout, "  %v\n", e)
		}
	}
	var col *obs.Collector
	if cfg.mode == "analyze" || cfg.traceOut != "" || cfg.metricsOut != "" || cfg.report || !cfg.slo.Empty() {
		col = obs.NewCollector()
		col.SetInterval(time.Duration(cfg.metricsIvMS) * time.Millisecond)
	}
	out, err := scengen.RunFleet(sim.NewEnv(), sc, col)
	if err != nil {
		return fail(err)
	}
	if cfg.traceOut != "" {
		if err := writeFile(cfg.traceOut, col.WriteTrace); err != nil {
			return fail(err)
		}
	}
	if cfg.metricsOut != "" {
		if err := writeFile(cfg.metricsOut, col.WriteMetricsCSV); err != nil {
			return fail(err)
		}
	}
	var held string
	switch cfg.mode {
	case "run":
		held = printRun(stdout, sc, out.Result)
	case "chaos":
		held = printChaos(stdout, out.Result)
	}
	if err := out.Err(); err != nil {
		return fail("INVARIANT VIOLATIONS:", err)
	}
	stats := out.Stats()
	if cfg.mode == "analyze" {
		return analysis(cfg, analyze.FromCollector(col), &stats, stdout, stderr)
	}
	fmt.Fprintf(stdout, "  invariants: all held (%s)\n", held)
	if col != nil {
		fmt.Fprintf(stdout, "\n%s", col.Summary())
	}
	if cfg.report || !cfg.slo.Empty() {
		fmt.Fprintln(stdout)
		code = analysis(cfg, analyze.FromCollector(col), &stats, stdout, stderr)
	}
	if cfg.fingerprint {
		fmt.Fprintf(stdout, "\n--- fingerprint\n%s", out.Fingerprint)
	}
	return code
}

// printRun renders run mode's job table; it returns the invariants checked.
func printRun(w io.Writer, sc scengen.FleetScenario, res *orchestrator.FleetResult) string {
	fmt.Fprintf(w, "fleetsim scenario %s (seed %d)\n\n", sc.ID(), sc.Seed)
	fmt.Fprintf(w, "%4s %-12s %3s %7s %5s %6s %10s %10s %10s %10s\n",
		"job", "workload", "g", "tenant", "host", "moves", "arrival", "wait", "runtime", "finish")
	for _, j := range res.Jobs {
		fmt.Fprintf(w, "%4d %-12s %3d %7d %5d %6d %10v %10v %10v %10v\n",
			j.ID, j.Workload, j.GPUs, j.Tenant, j.Host+1, j.Moves,
			j.Arrival.Round(time.Millisecond), j.Wait.Round(time.Millisecond),
			j.Runtime.Round(time.Millisecond), j.Finished.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\n%s", res.Summary())
	return fmt.Sprintf("%d jobs, lifecycle+assignment+conservation", len(res.Jobs))
}

// printChaos renders chaos mode's recovery table and fault timeline.
func printChaos(w io.Writer, res *orchestrator.FleetResult) string {
	fmt.Fprintf(w, "\n%4s %-12s %3s %5s %8s %6s %10s %10s  %s\n",
		"job", "workload", "g", "host", "retries", "ckpt", "lost", "finish", "state")
	for _, j := range res.Jobs {
		state := "done"
		if j.Failed {
			state = "FAILED: " + j.FailureCause
		} else if j.Retries > 0 {
			state = "recovered: " + j.FailureCause
		}
		fmt.Fprintf(w, "%4d %-12s %3d %5d %8d %4dep %8.1fGs %10v  %s\n",
			j.ID, j.Workload, j.GPUs, j.Host+1, j.Retries, j.EpochsDone,
			j.LostGPUSeconds, j.Finished.Round(time.Millisecond), state)
	}
	fmt.Fprintf(w, "\n%s", res.Summary())
	if res.Track != nil && res.Track.Len() > 0 && res.Makespan > 0 {
		fmt.Fprintf(w, "  fault timeline [0, %v]: %s\n",
			res.Makespan.Round(time.Millisecond), res.Track.Timeline(48, res.Makespan))
	}
	return fmt.Sprintf("%d jobs, %d faults; lifecycle+assignment+conservation+lost-work", len(res.Jobs), res.Faults)
}

// analysis analyzes tr, scores the SLO, writes the text or JSON report
// to stdout or the -o file, and returns the exit code. stats is nil for
// a bare trace, whose goodput and utilization clauses then skip.
func analysis(cfg config, tr *analyze.Trace, stats *analyze.FleetStats, stdout, stderr io.Writer) int {
	a := tr.Analyze()
	var health *analyze.HealthReport
	if !cfg.slo.Empty() {
		st := analyze.FleetStats{}
		if stats != nil {
			st = *stats
		}
		health = analyze.Evaluate(cfg.slo, a, st)
	}
	render := func(w io.Writer) error {
		if !cfg.json {
			return analyze.WriteText(w, a, stats, health, cfg.top)
		}
		b, err := analyze.JSONReport(a, stats, health, cfg.top)
		if err == nil {
			_, err = w.Write(b)
		}
		return err
	}
	var err error
	if cfg.outPath != "" {
		err = writeFile(cfg.outPath, render)
	} else {
		err = render(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	if health != nil && !health.Healthy {
		return 3
	}
	return 0
}

// writeFile creates path and streams one exporter into it. It reports
// the Close error too, so a short write never exits 0.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
