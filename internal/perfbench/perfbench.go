// Package perfbench is the simulator's performance-regression harness: a
// fixed suite of micro-benchmarks over the sim core, the fabric allocator
// and the full experiment suite, runnable in process (testing.Benchmark)
// and serialized to the checked-in BENCH_*.json trajectory files that let
// each PR compare its constant factors against its predecessors.
//
// The benchmark bodies live here — not in _test.go files — so the
// per-package `go test -bench` benchmarks and the `benchrunner
// -bench-json` suite run the exact same harnesses and can never diverge.
package perfbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/collective"
	"composable/internal/experiments"
	"composable/internal/fabric"
	"composable/internal/faults"
	"composable/internal/lint"
	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/units"
)

// PerfResult is one micro-benchmark measurement in the repo's benchmark
// trajectory (the checked-in BENCH_*.json files). Fields mirror what `go
// test -bench -benchmem` reports so benchstat-style comparison across PRs
// stays straightforward.
type PerfResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// OpsPerSec is the benchmark's headline rate: simulated events/sec for
	// the sim-core benchmarks, flow add→drain→remove cycles/sec for the
	// fabric benchmarks, experiment-suite runs/sec for the end-to-end one.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// PerfReport is the file format of BENCH_*.json: environment provenance
// plus the suite results, so future PRs can tell a real regression from a
// hardware change. GoMaxProcs and CreatedAt were added in PR7 (older
// trajectory files read back with zero values, which EnvMismatch treats
// as unknown): BENCH_PR6's num_cpu=1 against PR5's box made cross-PR
// comparison ambiguous, so reports now carry enough provenance for
// Compare users to warn when two reports came from different worlds.
type PerfReport struct {
	Schema    string `json:"schema"`
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is runtime.GOMAXPROCS at measurement time — the
	// scheduler-visible parallelism, which bounds benchmark noise far more
	// directly than the physical CPU count.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// CreatedAt is the wall-clock RFC 3339 time the suite ran.
	CreatedAt string `json:"created_at,omitempty"`
	// Samples is how many runs each result's fastest-of-N was taken over
	// (SamplesPerBench at write time; zero in pre-PR7 reports, meaning a
	// single run).
	Samples int          `json:"samples,omitempty"`
	Results []PerfResult `json:"results"`
}

// PerfSchema identifies the BENCH_*.json layout.
const PerfSchema = "composable-bench/v1"

// Benchmark is one registered suite entry.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the registered micro-benchmarks in suite order. The
// registry is exposed separately from PerfSuite so tests can check
// registration without paying for a measurement run.
func Suite() []Benchmark {
	return []Benchmark{
		{"sim/schedule-callbacks", BenchSimScheduleCallbacks},
		{"sim/sleep-wake", BenchSimSleepWake},
		{"sim/same-instant-fifo", BenchSimSameInstantFIFO},
		{"fabric/flow-churn-contended", BenchFabricFlowChurnContended},
		{"collective/allreduce-local", BenchCollectiveAllReduceLocal},
		{"cluster/compose-pod", BenchClusterComposePod},
		{"orchestrator/fleet-schedule", BenchOrchestratorFleetSchedule},
		{"orchestrator/pod-schedule", BenchOrchestratorPodSchedule},
		{"orchestrator/pod-burst", BenchOrchestratorPodBurst},
		{"faults/recover-reschedule", BenchFaultsRecoverReschedule},
		{"obs/trace-fleet-schedule", BenchObsTraceFleetSchedule},
		{"obs/analyze-fleet-trace", BenchObsAnalyzeFleetTrace},
		{"suite/run-all-sequential", BenchSuiteRunAllSequential},
		{"lint/simlint-full-repo", BenchSimlintFullRepo},
	}
}

// PerfSuite runs the simulator's performance micro-benchmarks in process
// via testing.Benchmark — no `go test` invocation needed — and returns the
// measurements. It is the engine behind `benchrunner -bench-json`.
//
// The suite covers the three layers the hot path crosses: the sim core's
// event loop (events/sec), the fabric's max-min allocator under flow churn
// (flows/sec), and one full experiment-suite regeneration (the number the
// ROADMAP's "as fast as the hardware allows" goal ultimately cares about).
//
// Each benchmark runs SamplesPerBench times and the fastest sample is
// reported. On a shared single-CPU box individual testing.Benchmark runs
// swing ±25% with host noise; the minimum is the standard estimator for
// "what the code costs when the machine isn't busy", and it is what keeps
// the CI regression gate (benchrunner -bench-against) from tripping on a
// noisy neighbor instead of a real regression.
func PerfSuite() []PerfResult {
	benchmarks := Suite()
	results := make([]PerfResult, 0, len(benchmarks))
	for _, bm := range benchmarks {
		var best testing.BenchmarkResult
		for s := 0; s < SamplesPerBench; s++ {
			r := testing.Benchmark(bm.Fn)
			if s == 0 || float64(r.T.Nanoseconds())/float64(r.N) < float64(best.T.Nanoseconds())/float64(best.N) {
				best = r
			}
		}
		per := PerfResult{
			Name:        bm.Name,
			Iterations:  best.N,
			NsPerOp:     float64(best.T.Nanoseconds()) / float64(best.N),
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
		}
		if per.NsPerOp > 0 {
			per.OpsPerSec = 1e9 / per.NsPerOp
		}
		results = append(results, per)
	}
	return results
}

// SamplesPerBench is how many times PerfSuite runs each benchmark before
// keeping the fastest sample.
const SamplesPerBench = 3

// NewPerfReport wraps suite results with environment provenance.
func NewPerfReport(label string, results []PerfResult) PerfReport {
	return PerfReport{
		Schema:     PerfSchema,
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Samples:    SamplesPerBench,
		Results:    results,
	}
}

// EnvMismatch compares two reports' measurement environments and returns
// one human-readable warning per differing dimension. A zero/empty value
// on either side (a pre-PR7 trajectory file) is unknown and never warns.
// Compare callers should surface these alongside the deltas: a 2x "ratio"
// between a 1-CPU CI box and an 8-CPU laptop is provenance, not a
// regression.
func EnvMismatch(old, new PerfReport) []string {
	var warns []string
	str := func(field, o, n string) {
		if o != "" && n != "" && o != n {
			warns = append(warns, fmt.Sprintf("%s changed: %s → %s", field, o, n))
		}
	}
	num := func(field string, o, n int) {
		if o != 0 && n != 0 && o != n {
			warns = append(warns, fmt.Sprintf("%s changed: %d → %d", field, o, n))
		}
	}
	str("go version", old.GoVersion, new.GoVersion)
	str("GOOS", old.GOOS, new.GOOS)
	str("GOARCH", old.GOARCH, new.GOARCH)
	num("num CPU", old.NumCPU, new.NumCPU)
	num("GOMAXPROCS", old.GoMaxProcs, new.GoMaxProcs)
	return warns
}

// WritePerfReport writes the report as indented JSON to path.
func WritePerfReport(path, label string, results []PerfResult) error {
	data, err := json.MarshalIndent(NewPerfReport(label, results), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerfReport loads a BENCH_*.json trajectory file, rejecting files
// with an unknown schema marker.
func ReadPerfReport(path string) (PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return PerfReport{}, err
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return PerfReport{}, fmt.Errorf("perfbench: parsing %s: %w", path, err)
	}
	if rep.Schema != PerfSchema {
		return PerfReport{}, fmt.Errorf("perfbench: %s has schema %q, want %q", path, rep.Schema, PerfSchema)
	}
	return rep, nil
}

// Delta is one benchmark's movement between two trajectory reports.
type Delta struct {
	Name string
	// Old/NewNsPerOp are the per-op times; Ratio is new/old (>1 = slower).
	OldNsPerOp, NewNsPerOp float64
	Ratio                  float64
	// AllocRatio is new/old allocations per op: 1 when both are zero, +Inf
	// when allocations appear against an allocation-free baseline (the
	// regression the zero-alloc trajectory entries exist to catch).
	AllocRatio float64
	// Regressed is set when the time ratio exceeds the comparison
	// threshold. Missing marks benchmarks present in only one report
	// (renames, additions); those never count as regressions.
	Regressed bool
	Missing   bool
}

// Compare diffs two trajectory reports benchmark by benchmark. threshold
// is the tolerated relative slowdown (e.g. 0.20 flags anything more than
// 20% slower); it guards the time ratio only — allocation movement is
// reported but not flagged, since alloc counts are exact and meaningful
// changes should be asserted directly. Results follow the new report's
// order, with old-only benchmarks appended as Missing.
func Compare(old, new PerfReport, threshold float64) []Delta {
	byName := make(map[string]PerfResult, len(old.Results))
	for _, r := range old.Results {
		byName[r.Name] = r
	}
	deltas := make([]Delta, 0, len(new.Results))
	for _, r := range new.Results {
		o, ok := byName[r.Name]
		if !ok {
			deltas = append(deltas, Delta{Name: r.Name, NewNsPerOp: r.NsPerOp, Missing: true})
			continue
		}
		delete(byName, r.Name)
		d := Delta{Name: r.Name, OldNsPerOp: o.NsPerOp, NewNsPerOp: r.NsPerOp}
		if o.NsPerOp > 0 {
			d.Ratio = r.NsPerOp / o.NsPerOp
		}
		switch {
		case o.AllocsPerOp > 0:
			d.AllocRatio = float64(r.AllocsPerOp) / float64(o.AllocsPerOp)
		case r.AllocsPerOp == 0:
			d.AllocRatio = 1
		default: // allocations appeared against a zero-alloc baseline
			d.AllocRatio = math.Inf(1)
		}
		d.Regressed = d.Ratio > 1+threshold
		deltas = append(deltas, d)
	}
	// Old-only benchmarks, in the old report's order.
	for _, r := range old.Results {
		if _, gone := byName[r.Name]; gone {
			deltas = append(deltas, Delta{Name: r.Name, OldNsPerOp: r.NsPerOp, Missing: true})
		}
	}
	return deltas
}

// Regressions filters a comparison down to the flagged entries.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// BenchSimScheduleCallbacks measures the raw event-queue cost with no
// process handoffs: a single self-rescheduling callback chain, one event
// per op. This is the purest view of per-event allocation.
func BenchSimScheduleCallbacks(b *testing.B) {
	e := sim.NewEnv()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchSimSleepWake measures the full process path — schedule, heap, wake,
// yield — one Sleep per op across a small set of interleaved processes.
func BenchSimSleepWake(b *testing.B) {
	e := sim.NewEnv()
	const procs = 8
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Go("sleeper", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(procs*per)/b.Elapsed().Seconds(), "events/s")
}

// BenchSimSameInstantFIFO measures zero-duration sleeps: every reschedule
// lands at the current instant, the case the FIFO fast path serves.
func BenchSimSameInstantFIFO(b *testing.B) {
	e := sim.NewEnv()
	e.Go("spinner", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// StarNetwork builds the benchmark fabric: n endpoint GPUs around one
// switch, the shape that makes every flow share the switch links and so
// exercises the max-min allocator with real contention.
func StarNetwork(env *sim.Env, n int) (*fabric.Network, []fabric.NodeID) {
	net := fabric.NewNetwork(env)
	sw := net.AddNode("sw", fabric.KindSwitch)
	eps := make([]fabric.NodeID, n)
	for i := range eps {
		eps[i] = net.AddNode("gpu", fabric.KindGPU)
		net.ConnectSym(eps[i], sw, units.GBps(16), time.Microsecond, "pcie")
	}
	return net, eps
}

// BenchFabricFlowChurnContended measures allocator churn under steady
// contention: eight transfer loops share the star switch, so every
// add/remove recomputes fair shares over ~8 active flows. One op is one
// completed flow.
func BenchFabricFlowChurnContended(b *testing.B) {
	const procs = 8
	env := sim.NewEnv()
	net, eps := StarNetwork(env, procs)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		src, dst := eps[i], eps[(i+1)%procs]
		env.Go("driver", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				if err := net.Transfer(p, src, dst, units.MB); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchCollectiveAllReduceLocal measures the fabric's completion path in
// the shape of the paper-train workload: repeated 25 MB all-reduces (one
// DDP gradient bucket) over both ring channels of a warm 8-GPU localGPUs
// communicator, every round retiring all its legs at once. One op is one
// all-reduce.
func BenchCollectiveAllReduceLocal(b *testing.B) {
	const bucket = 25 * units.MB
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		b.Fatal(err)
	}
	comm, err := collective.New(sys.Net, sys.GPUs)
	if err != nil {
		b.Fatal(err)
	}
	allReduce := func(n int) {
		env.Go("driver", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				comm.ExecAllReduce(p, bucket)
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
	allReduce(1) // warm the flow, batch and leg pools
	b.ReportAllocs()
	b.ResetTimer()
	allReduce(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "allreduces/s")
}

// fleetScheduleStream is the fixed 6-job stream of the fleet-schedule
// op: three tenants, four arrival waves, every workload twice.
func fleetScheduleStream() []orchestrator.JobSpec {
	return []orchestrator.JobSpec{
		{Arrival: 0, Tenant: 0, GPUs: 4, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2},
		{Arrival: 0, Tenant: 1, GPUs: 2, Workload: "BERT", Epochs: 1, ItersPerEpoch: 2},
		{Arrival: time.Second, Tenant: 2, GPUs: 2, Workload: "MobileNetV2", Epochs: 1, ItersPerEpoch: 2},
		{Arrival: 2 * time.Second, Tenant: 0, GPUs: 4, Workload: "MobileNetV2", Epochs: 1, ItersPerEpoch: 2},
		{Arrival: 2 * time.Second, Tenant: 1, GPUs: 2, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2},
		{Arrival: 3 * time.Second, Tenant: 2, GPUs: 4, Workload: "BERT", Epochs: 1, ItersPerEpoch: 2},
	}
}

// BenchOrchestratorFleetSchedule measures one complete fleet scheduling
// round: compose a 3-host × 8-GPU fleet and drive a fixed 6-job stream
// through the orchestrator under the drawer-local policy, dynamic
// recompositions included. One op = one full fleet run, so the number
// tracks the whole stack the fleet path crosses — composition, control
// plane, scheduler, training engine, fabric.
func BenchOrchestratorFleetSchedule(b *testing.B) {
	stream := fleetScheduleStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 3, GPUs: 8})
		if err != nil {
			b.Fatal(err)
		}
		res, err := orchestrator.Run(fleet, stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(stream) {
			b.Fatal("incomplete fleet run")
		}
	}
	b.ReportMetric(float64(b.N*len(stream))/b.Elapsed().Seconds(), "jobs/s")
}

// PodBenchStream is the datacenter-scale workload behind
// orchestrator/pod-schedule: 500 jobs from 128 tenants, mostly
// chassis-sized (2/4/6 GPUs) with every fiftieth spanning two chassis
// (20 GPUs), arriving in 100 waves. Deterministic by construction.
func PodBenchStream() []orchestrator.JobSpec {
	workloads := []string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]orchestrator.JobSpec, 500)
	for i := range jobs {
		gpus := 2 + (i%3)*2
		if i%50 == 0 {
			gpus = 20
		}
		jobs[i] = orchestrator.JobSpec{
			Arrival:  time.Duration(i%100) * 50 * time.Millisecond,
			Tenant:   i % 128,
			GPUs:     gpus,
			Workload: workloads[i%3],
			Epochs:   1, ItersPerEpoch: 1,
		}
	}
	return jobs
}

// PodFleetOptions is the orchestrator/pod-schedule testbed: 8 pods × 8
// chassis × 16 GPUs (1024 GPUs, 128 hosts) behind a 4:1 oversubscribed
// spine — the ISSUE's 1000-GPU datacenter shape.
func PodFleetOptions() cluster.FleetOptions {
	return cluster.FleetOptions{
		Hosts: 2, GPUs: 16, Pods: 8, ChassisPerPod: 8, Oversubscription: 4,
	}
}

// BenchOrchestratorPodSchedule measures datacenter-scale scheduling: one
// op composes the 1024-GPU pod fleet and drives the full 500-job stream
// through the drawer-local policy — composition, spine/leaf fabric,
// hierarchy-aware placement, cross-chassis recomposition, training,
// teardown. This is the entry the <10 s acceptance bound and the CI
// bench gate watch.
func BenchOrchestratorPodSchedule(b *testing.B) {
	stream := PodBenchStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fleet, err := cluster.ComposeFleet(env, PodFleetOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := orchestrator.Run(fleet, stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(stream) || res.FailedJobs != 0 {
			b.Fatalf("incomplete pod fleet run: %d results, %d failed", len(res.Jobs), res.FailedJobs)
		}
	}
	b.ReportMetric(float64(b.N*len(stream))/b.Elapsed().Seconds(), "jobs/s")
}

// PodBurstStream is the orchestrator/pod-burst workload: 128
// one-iteration jobs of 2, 4 or 6 GPUs, every fiftieth spanning chassis at
// 20 GPUs, one arrival every 25 ms from tenants spread over all 128 hosts.
// Each job trains briefly, so placement, not training, dominates the op.
// Deterministic by construction.
func PodBurstStream() []orchestrator.JobSpec {
	workloads := []string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]orchestrator.JobSpec, 128)
	for i := range jobs {
		gpus := 2 + (i%3)*2
		if i%50 == 0 {
			gpus = 20
		}
		jobs[i] = orchestrator.JobSpec{
			Arrival:  time.Duration(i) * 25 * time.Millisecond,
			Tenant:   i * 37 % 128,
			GPUs:     gpus,
			Workload: workloads[i%3],
			Epochs:   1, ItersPerEpoch: 1,
		}
	}
	return jobs
}

// BenchOrchestratorPodBurst measures placement-heavy scheduling on the
// cold 1024-GPU pod fleet: one op composes the fleet and places and runs
// the 128-job PodBurstStream through the drawer-local policy, one Place
// call per arrival against the whole fleet.
func BenchOrchestratorPodBurst(b *testing.B) {
	stream := PodBurstStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fleet, err := cluster.ComposeFleet(env, PodFleetOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := orchestrator.Run(fleet, stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(stream) || res.FailedJobs != 0 {
			b.Fatalf("incomplete pod burst run: %d results, %d failed", len(res.Jobs), res.FailedJobs)
		}
	}
	b.ReportMetric(float64(b.N*len(stream))/b.Elapsed().Seconds(), "jobs/s")
}

// BenchClusterComposePod measures composing the 1024-GPU pod fleet alone:
// 64 chassis control planes, the spine/leaf fabric graph and the host and
// slot records, the setup every pod-fleet scenario pays before its first
// event. The device models are not part of it: a fleet creates them when
// a job is first composed onto them. One op = one composed fleet.
func BenchClusterComposePod(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fleets/s")
}

// BenchFaultsRecoverReschedule measures the full fault-recovery path:
// compose a 2-host × 8-GPU fleet, run a 4-epoch job plus a companion, kill
// a held GPU mid-run, and let the scheduler abort the attempt, blacklist
// the device, and restart the job from its last epoch-boundary checkpoint.
// One op = one complete faulty fleet run, so the number tracks everything
// the recovery path crosses — injection, cooperative wind-down, control
// plane hot-unplug, requeue, checkpoint restore.
func BenchFaultsRecoverReschedule(b *testing.B) {
	stream := []orchestrator.JobSpec{
		{Arrival: 0, Tenant: 0, GPUs: 4, Workload: "ResNet-50", Epochs: 4, ItersPerEpoch: 6},
		{Arrival: time.Second, Tenant: 1, GPUs: 2, Workload: "MobileNetV2", Epochs: 1, ItersPerEpoch: 4},
	}
	plan := faults.Plan{Events: []faults.Event{
		{At: 2 * time.Second, Kind: faults.KindGPU, Target: 0, Repair: 500 * time.Millisecond},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 2, GPUs: 8})
		if err != nil {
			b.Fatal(err)
		}
		res, err := orchestrator.Run(fleet, stream, orchestrator.Options{
			Policy: orchestrator.DrawerLocal{}, AttachLatency: -1, Faults: &plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Kills == 0 {
			b.Fatal("benchmark fault never killed: not measuring recovery")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recoveries/s")
}

// TraceFleetSchedule runs one fleet-schedule op with the observability
// layer fully armed — a collector attached to the sim, fabric, train and
// orchestrator seams, metrics sampled on the default interval — and
// streams the resulting Chrome trace into w. It is the op body behind
// both `benchrunner -trace` and the obs/trace-fleet-schedule suite entry.
func TraceFleetSchedule(w io.Writer) error {
	col, _, err := observedFleetRun()
	if err != nil {
		return err
	}
	return col.WriteTrace(w)
}

// observedFleetRun executes the canonical observed fleet-schedule op —
// 6 jobs over 3 hosts × 8 GPUs with the collector attached at every
// seam — and returns the loaded collector plus the run result. It is
// the shared setup behind TraceFleetSchedule and the analyze benchmark.
func observedFleetRun() (*obs.Collector, *orchestrator.FleetResult, error) {
	stream := fleetScheduleStream()
	col := obs.NewCollector()
	env := sim.NewEnv()
	col.Attach(env)
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 3, GPUs: 8})
	if err != nil {
		return nil, nil, err
	}
	fleet.AttachObs(col)
	res, err := orchestrator.Run(fleet, stream, orchestrator.Options{
		Policy: orchestrator.DrawerLocal{}, Obs: col,
	})
	if err != nil {
		return nil, nil, err
	}
	if len(res.Jobs) != len(stream) {
		return nil, nil, fmt.Errorf("perfbench: incomplete observed fleet run: %d jobs", len(res.Jobs))
	}
	return col, res, nil
}

// BenchObsTraceFleetSchedule measures the fully-observed fleet-schedule
// op: the same work as orchestrator/fleet-schedule plus span collection,
// metric sampling, and trace export (into io.Discard). The gap between
// the two entries prices the observability layer when it is ON; the
// alloc gates separately pin that the disabled path costs nothing.
func BenchObsTraceFleetSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := TraceFleetSchedule(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchObsAnalyzeFleetTrace measures the trace-analytics pipeline —
// span extraction, per-job time attribution with critical paths, the
// percentile histograms, an SLO evaluation and the text report — over
// the observed fleet-schedule run. The run itself happens once, untimed:
// this entry prices what `fleetsim analyze` / `-report` cost on top of a
// trace the simulator already produced.
func BenchObsAnalyzeFleetTrace(b *testing.B) {
	col, res, err := observedFleetRun()
	if err != nil {
		b.Fatal(err)
	}
	slo, err := analyze.ParseSLO("p99-wait<=60s max-failed<=0")
	if err != nil {
		b.Fatal(err)
	}
	stats := analyze.FleetStats{Goodput: res.Goodput, Utilization: res.Utilization, Known: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := analyze.FromCollector(col).Analyze()
		health := analyze.Evaluate(slo, a, stats)
		if !health.Healthy {
			b.Fatal("benchmark SLO unexpectedly violated: not measuring the healthy path")
		}
		if err := analyze.WriteText(io.Discard, a, &stats, health, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "analyses/s")
}

// BenchSuiteRunAllSequential regenerates every registered experiment on a
// single worker at quick scale — the end-to-end number the trajectory
// tracks across PRs.
func BenchSuiteRunAllSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Quick)
		reports, err := experiments.NewRunner(s, nil).RunAll(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchSimlintFullRepo measures one full static-analysis pass over the
// module: `go list -export` package loading, type-checking every package
// from export data, and all four analyzers. This is the cost the lint CI
// job pays per run and what a pre-commit hook would feel; ops/sec is
// full-repo passes per second.
func BenchSimlintFullRepo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := lint.RunAnalyzers(pkgs, lint.Analyzers()...)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo not lint-clean: %d finding(s), first: %s", len(diags), diags[0])
		}
	}
}
