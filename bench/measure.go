package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
)

// maxPass stops a pass that has already run its minimum scenario count
// but not yet its minimum wall time, so one process stays well inside its
// time limit even on a host that has slowed down.
const maxPass = 60 * time.Second

// runner drives one workload process: the warm-up, then the passes.
type runner struct {
	cfg    config
	kernel *calibKernel
	ref    float64 // calib_ref_s
	sc     scenario
	want   [32]byte // the digest every scenario must produce
	stderr io.Writer

	attempted, failed int
}

// samples are one pass's scenarios, in host seconds.
type samples struct {
	wall []float64 // raw wall time
	kern []float64 // mean calibration-kernel time around the scenario
	cal  []float64 // calibrated: wall × calib_ref_s / kern
}

func (s *samples) calibrate(i int, d time.Duration, ref float64) float64 {
	return d.Seconds() * ref / s.kern[i]
}

// loop runs scenarios in a closed loop with one client: each is a
// complete simulation on a freshly composed system, and the next starts
// when it finishes. It stops once it has run minN scenarios and minWall
// has passed. The calibration kernel runs between scenarios, so each
// scenario is calibrated by the mean of the kernel runs before and after
// it. each, if set, sees every outcome after the following kernel run.
func (r *runner) loop(pass string, a attach, minN int, minWall time.Duration, each func(i int, o outcome)) samples {
	var s samples
	start := time.Now()
	k0 := r.kernel.run()
	for i := 0; ; i++ {
		if el := time.Since(start); i >= minN && (el >= minWall || el >= maxPass) {
			break
		}
		if a.spans != nil {
			a.spans.scenario = i
		}
		sp := a.spans.begin("scenario")
		t0 := time.Now()
		o, err := r.sc.run(a)
		wall := time.Since(t0)
		a.spans.end(sp)
		k1 := r.kernel.run()
		r.verify(pass, o, err)
		k := (k0 + k1).Seconds() / 2
		s.wall = append(s.wall, wall.Seconds())
		s.kern = append(s.kern, k)
		s.cal = append(s.cal, wall.Seconds()*r.ref/k)
		k0 = k1
		if each != nil {
			each(i, o)
		}
	}
	return s
}

// verify counts a scenario as attempted, and as failed if it returned an
// error, produced another digest, or broke an invariant.
func (r *runner) verify(pass string, o outcome, err error) {
	r.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case o.digest != r.want:
		why = fmt.Sprintf("digest %x, want %x", o.digest, r.want)
	case o.invErr != nil:
		why = o.invErr.Error()
	default:
		return
	}
	r.failed++
	if r.failed <= 3 {
		fmt.Fprintf(r.stderr, "bench: %s seed %d, %s pass: scenario failed: %s\n",
			r.cfg.workload.name, r.cfg.seed, pass, why)
	}
}

// runWorkload runs one workload process and returns its result.
func runWorkload(cfg config, p pins, stderr io.Writer) (*result, error) {
	r := &runner{cfg: cfg, kernel: newCalibKernel(), ref: p.CalibRefS, stderr: stderr}
	r.kernel.run() // the first run pays for page faults the others do not

	// The warm-up scenario: untimed, and the source of the expected digest
	// at seeds that have no pin.
	r.sc = cfg.workload.gen(cfg.seed)
	warm, err := r.sc.run(attach{})
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload.name, err)
	}
	r.want = warm.digest
	if pin, ok := p.Digests[cfg.workload.name][strconv.FormatInt(cfg.seed, 10)]; ok {
		if r.want, err = parseDigest(pin); err != nil {
			return nil, fmt.Errorf("pins.json: %s: %w", cfg.workload.name, err)
		}
	}
	r.verify("warm-up", warm, nil)

	res := &result{
		Workload: cfg.workload.name, Seed: cfg.seed, Digest: hex.EncodeToString(warm.digest[:]),
		Metrics: map[string]metric{},
		Host: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CalibRefS: r.ref,
		},
	}
	if cfg.trace {
		res.Trace = 1
		if err := r.perLayer(res, warm); err != nil {
			return nil, err
		}
	} else if err := r.endToEnd(res, warm); err != nil {
		return nil, err
	}
	r.loop("check", attach{check: true}, r.cfg.checkN, 0, nil)

	res.Attempted, res.Failed = r.attempted, r.failed
	if cfg.trace {
		res.add("failed_frac", float64(r.failed)/float64(r.attempted), "fraction")
	}
	res.Correct = r.failed == 0
	return res, writeJSON(resultPath(cfg), res)
}

func parseDigest(s string) ([32]byte, error) {
	var d [32]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}

// memDelta is the allocator's work over a pass.
type memDelta struct{ bytes, mallocs, gcs float64 }

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats, n int) memDelta {
	after := memStats()
	return memDelta{
		bytes:   float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		mallocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		gcs:     float64(after.NumGC-before.NumGC) / float64(n),
	}
}

// peakRSS is the process's resident-set high-water mark in bytes. It reads
// VmHWM, which starts afresh at exec. getrusage's Maxrss, the fallback,
// also keeps the high-water mark of the process that forked this one, so
// under a Python launcher it reports the launcher's size.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// endToEnd runs the cold set-ups and the timed pass.
func (r *runner) endToEnd(res *result, warm outcome) error {
	setup, err := r.setups()
	if err != nil {
		return err
	}
	before := memStats()
	timed := r.loop("timed", attach{}, r.cfg.n, r.cfg.seconds, nil)
	mem := memSince(before, len(timed.cal))
	rss := peakRSS()
	p50 := nearestRank(timed.cal, 50)

	res.Scenarios = len(timed.cal)
	res.Host.CalibS = median(timed.kern)
	res.add("scenario_s_p50", p50, "s")
	res.add("scenario_s_p90", nearestRank(timed.cal, 90), "s")
	res.add("sim_speed", warm.simTime.Seconds()/p50, "sim_s/s")
	res.add("alloc_mb", mem.bytes/1e6, "MB")
	res.add("peak_rss_mb", rss/1e6, "MB")
	res.add("setup_s", median(setup), "s")
	return nil
}

// setups times cold set-ups, each in a child process from exec to exit:
// runtime and package init, the model graphs, input generation and the
// warm-up scenario. A set-up is a one-time cost a process pays only once,
// so the only way to measure it more than once is a fresh process each
// time; the median of the set-ups is reported.
func (r *runner) setups() ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < r.cfg.setups; i++ {
		cmd := exec.Command(exe, "-workload", r.cfg.workload.name, "-seed", strconv.FormatInt(r.cfg.seed, 10))
		cmd.Env = append(os.Environ(), setupChildEnv+"=1")
		cmd.Stderr = r.stderr
		k0 := r.kernel.run()
		t0 := time.Now()
		stdout, err := cmd.Output()
		wall := time.Since(t0)
		k1 := r.kernel.run()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		r.attempted++
		if got := string(bytes.TrimSpace(stdout)); got != hex.EncodeToString(r.want[:]) {
			r.failed++
			fmt.Fprintf(r.stderr, "bench: %s seed %d: set-up digest %s, want %x\n", r.cfg.workload.name, r.cfg.seed, got, r.want)
		}
		out = append(out, wall.Seconds()*r.ref/((k0+k1).Seconds()/2))
	}
	return out, nil
}

// perLayer runs a short timed pass as the reference, then the traced pass
// (CPU profile and benchmark-owned spans) and the obs pass (the
// simulator's own collector), and derives the per-layer metrics.
func (r *runner) perLayer(res *result, warm outcome) error {
	before := memStats()
	timed := r.loop("timed", attach{}, r.cfg.tracedN, 0, nil)
	mem := memSince(before, len(timed.cal))
	p50 := nearestRank(timed.cal, 50)
	res.Scenarios = len(timed.cal)
	res.Host.CalibS = median(timed.kern)

	base := filepath.Join(r.cfg.outDir, fmt.Sprintf("%s-seed%d", r.cfg.workload.name, r.cfg.seed))
	log := newSpanLog()
	traced, shares, err := r.tracedPass(base, log)
	if err != nil {
		return err
	}
	perCal := func(name string) float64 {
		d := log.perScenario(name, len(traced.cal))
		xs := make([]float64, len(d))
		for i := range d {
			xs[i] = traced.calibrate(i, d[i], r.ref)
		}
		return median(xs)
	}
	o, err := r.obsPass()
	if err != nil {
		return err
	}

	fl := warm.fleet
	if fl == nil {
		fl = &orchestrator.FleetResult{} // paper-train has no orchestrator
	}
	okRatio := 0.0
	if log.places > 0 {
		okRatio = float64(log.placesOK) / float64(log.places)
	}
	nTraced := float64(len(traced.cal))
	res.add("fabric.route.cpu_share", shares["fabric.route"], "fraction")
	res.add("fabric.route_pairs", o.routePairs, "count")
	res.add("fabric.flow.cpu_share", shares["fabric.flow"], "fraction")
	res.add("fabric.recomputes", o.recomputes, "count")
	res.add("fabric.flows", o.flows, "count")
	res.add("sim.events", float64(warm.events), "count")
	res.add("sim.events_per_s", float64(warm.events)/p50, "1/s")
	res.add("sim.cpu_share", shares["sim"], "fraction")
	res.add("collective.cpu_share", shares["collective"], "fraction")
	res.add("train.cpu_share", shares["train"], "fraction")
	res.add("train.iters", float64(warm.iters), "count")
	res.add("models.cpu_share", shares["models"], "fraction")
	res.add("orchestrator.cpu_share", shares["orchestrator"], "fraction")
	res.add("orchestrator.place_calls", float64(log.places)/nTraced, "count")
	res.add("orchestrator.place_ok_ratio", okRatio, "fraction")
	res.add("orchestrator.place_s", perCal("place"), "s")
	res.add("cluster.compose_s", perCal("compose"), "s")
	res.add("cluster.cpu_share", shares["cluster"], "fraction")
	res.add("faults.cpu_share", shares["faults"], "fraction")
	res.add("faults.injected", float64(fl.Faults), "count")
	res.add("faults.kills", float64(fl.Kills), "count")
	res.add("runtime.cpu_share", shares["runtime"], "fraction")
	res.add("runtime.mallocs", mem.mallocs, "count")
	res.add("runtime.gc_cycles", mem.gcs, "count")
	res.add("orchestrator.recompositions", float64(fl.Recompositions), "count")
	res.add("orchestrator.makespan_s", fl.Makespan.Seconds(), "sim_s")
	res.add("orchestrator.mean_wait_s", fl.MeanWait.Seconds(), "sim_s")
	res.add("orchestrator.utilization", fl.Utilization, "fraction")
	res.add("obs.run_overhead", o.runP50/p50-1, "fraction")
	res.add("obs.spans", o.spans, "count")
	res.add("obs.export_s", o.exportS, "s")
	res.add("analyze.s", o.analyzeS, "s")
	res.add("trace.overhead", nearestRank(traced.cal, 50)/p50-1, "fraction")
	res.add("host.wall_s_p50", nearestRank(timed.wall, 50), "s")
	res.add("host.calib_s_p50", nearestRank(timed.kern, 50), "s")
	return nil
}

// tracedPass runs the traced scenarios under the CPU profiler with the
// benchmark's spans on, writes the profile and the spans beside the result
// file, and returns the per-layer CPU shares.
func (r *runner) tracedPass(base string, log *spanLog) (samples, map[string]float64, error) {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return samples{}, nil, err
	}
	profPath := base + ".cpu.pprof"
	f, err := os.Create(profPath)
	if err != nil {
		return samples{}, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return samples{}, nil, err
	}
	traced := r.loop("traced", attach{spans: log}, r.cfg.tracedN, r.cfg.seconds, nil)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return samples{}, nil, err
	}
	sf, err := os.Create(base + ".spans.json")
	if err != nil {
		return samples{}, nil, err
	}
	if err := log.writeChrome(sf); err != nil {
		sf.Close()
		return samples{}, nil, err
	}
	if err := sf.Close(); err != nil {
		return samples{}, nil, err
	}
	text, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", profPath).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return samples{}, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	stacks, err := parseTraces(bytes.NewReader(text))
	if err != nil {
		return samples{}, nil, err
	}
	return traced, cpuShares(stacks), nil
}

// obsResult is what the obs pass measured. Counts come from its first
// scenario (they repeat exactly); times are medians over its scenarios.
type obsResult struct {
	runP50                   float64
	spans, recomputes, flows float64
	routePairs               float64
	exportS, analyzeS        float64
}

// obsPass runs scenarios with the simulator's own collector attached at
// every layer, then times exporting each trace and analyzing it.
func (r *runner) obsPass() (obsResult, error) {
	var o obsResult
	var export, analyzeT []time.Duration
	var werr error
	s := r.loop("obs", attach{obs: true}, r.cfg.obsN, 0, func(i int, out outcome) {
		var exp, an time.Duration
		for _, c := range out.cols {
			t0 := time.Now()
			if err := c.WriteTrace(io.Discard); err != nil && werr == nil {
				werr = err
			}
			exp += time.Since(t0)
			t0 = time.Now()
			analyze.FromCollector(c).Analyze()
			an += time.Since(t0)
			if i == 0 {
				o.addCounts(c)
			}
		}
		export = append(export, exp)
		analyzeT = append(analyzeT, an)
	})
	if werr != nil {
		return o, fmt.Errorf("obs export: %w", werr)
	}
	o.runP50 = nearestRank(s.cal, 50)
	ex, an := make([]float64, len(export)), make([]float64, len(export))
	for i := range export {
		ex[i] = s.calibrate(i, export[i], r.ref)
		an[i] = s.calibrate(i, analyzeT[i], r.ref)
	}
	o.exportS, o.analyzeS = median(ex), median(an)
	return o, nil
}

// addCounts adds one collector's span and fabric counts. Node ids are
// local to a system, so distinct route pairs are counted per collector.
func (o *obsResult) addCounts(c *obs.Collector) {
	o.spans += float64(c.SpanCount())
	o.recomputes += float64(c.Registry().CounterValue("fabric.recomputes"))
	pairs := map[[2]int64]bool{}
	c.VisitSpans(func(v obs.SpanView) {
		if v.Cat != obs.CatFabric || v.Name != "flow" {
			return
		}
		o.flows++
		src, _ := v.AttrInt("src")
		dst, _ := v.AttrInt("dst")
		pairs[[2]int64{src, dst}] = true
	})
	o.routePairs += float64(len(pairs))
}
