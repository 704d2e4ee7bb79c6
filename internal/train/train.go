// Package train is the deep-learning training engine of the simulator: the
// PyTorch-equivalent layer. It drives the full per-iteration pipeline the
// paper describes in §V-B / Figure 8 — storage read, CPU preprocessing,
// host→GPU copy, forward/backward compute, gradient synchronization,
// optimizer step, periodic checkpointing — over a composed system, with
// the software configurations of §V-C-4: DistributedDataParallel with
// bucketed overlap, single-process DataParallel, FP32 or FP16 mixed
// precision, and ZeRO-style sharded training.
package train

import (
	"errors"
	"fmt"
	"time"

	"composable/internal/cluster"
	"composable/internal/collective"
	"composable/internal/dlmodel"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/units"
)

// Strategy selects the multi-GPU parallelization scheme.
type Strategy string

// Parallelization strategies (§V-C-4).
const (
	// DDP is PyTorch DistributedDataParallel: one process per GPU, ring
	// all-reduce of gradient buckets overlapped with backward compute.
	DDP Strategy = "DDP"
	// DP is PyTorch DataParallel: a single process with a master GPU
	// that gathers gradients and broadcasts parameters every iteration.
	DP Strategy = "DP"
)

// Options configures a training run.
type Options struct {
	Workload  dlmodel.Workload
	Precision gpu.Precision
	Strategy  Strategy
	// Sharded enables ZeRO-2 style sharding of gradients and optimizer
	// state across the data-parallel group (DDP only).
	Sharded bool
	// BatchPerGPU overrides the workload default (0 keeps it).
	BatchPerGPU int
	// Epochs overrides the workload default (0 keeps it).
	Epochs int
	// ItersPerEpoch scales the epoch length; it must be set — full
	// ImageNet epochs are pointless to simulate event by event.
	ItersPerEpoch int
	// Buckets is the DDP gradient bucket count (0 → 4).
	Buckets int
	// Workers is the data-loader worker pool size (0 → 24).
	Workers int
	// Channels overrides the collective's counter-rotating ring count
	// (0 → library default; ablation knob).
	Channels int
	// CheckpointsPerEpoch overrides the workload's checkpoint write
	// cadence (0 keeps it). Only epoch-boundary checkpoints are resume
	// points (ResumeEpochs); mid-epoch writes model Figure 9's periodic
	// dips, so raising this buys fidelity, not recovery.
	CheckpointsPerEpoch int
	// ResumeEpochs marks this run as a checkpoint restart: the job already
	// completed that many epochs in a previous attempt, and before the
	// first iteration rank 0 restores the checkpoint — a storage read plus
	// a host→GPU parameter load per rank, charged against the same tiers
	// the periodic checkpoint writes use. Epochs still counts only the
	// epochs this run executes.
	ResumeEpochs int
	// Probe, when non-nil, observes the run's lifecycle probe points —
	// ProbeEpoch at every epoch boundary, ProbeCheckpoint after each
	// checkpoint write, ProbeDone at completion — each with the virtual
	// time of the event. It must not change outcomes, so it is excluded
	// from Fingerprint; internal/invariant hangs its training-side checks
	// here.
	Probe func(event string, at time.Duration)
	// Obs, when non-nil, records the run's lifecycle on the train trace
	// track: epoch and checkpoint/restore spans, a done/abort instant.
	// Like Probe it must not change outcomes, so it is excluded from
	// Fingerprint. ObsJob tags every emitted span with the owning fleet
	// job id (the orchestrator threads it through) so per-job traces can
	// be cut from a shared run.
	Obs    *obs.Collector
	ObsJob int
}

// Probe event names passed to Options.Probe.
const (
	ProbeEpoch      = "epoch"
	ProbeCheckpoint = "checkpoint"
	ProbeRestore    = "restore"
	ProbeDone       = "done"
	ProbeAbort      = "abort"
)

// Fingerprint canonically encodes every option that changes the outcome of
// a run, identifying the workload by its name (the Table II benchmarks are
// immutable; callers must not reuse a benchmark's name for a modified
// workload). Two runs of the same workload on identical systems with equal
// fingerprints produce identical Results (the simulation is deterministic),
// which is what makes fingerprints safe as cache/deduplication keys — the
// experiments session keys its shared-run cache on them.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%s|%v|%s|%t|%d|%d|%d|%d|%d|%d|%d|%d",
		o.Workload.Name, o.Precision, o.Strategy, o.Sharded,
		o.BatchPerGPU, o.Epochs, o.ItersPerEpoch, o.Buckets, o.Workers,
		o.Channels, o.CheckpointsPerEpoch, o.ResumeEpochs)
}

// launchBusyFraction is how much of the per-iteration launch overhead a
// coarse utilization sampler (nvidia-smi's ~100 ms windows) attributes to
// the GPU: short inter-kernel gaps are invisible to it.
const launchBusyFraction = 0.8

// prefetchDepth is the loader's global-batch lookahead.
const prefetchDepth = 3

// pcieWireOverhead converts payload bytes to on-the-wire bytes for the
// chassis port monitors: TLP/DLLP headers and flow-control traffic add
// ≈12% on PCIe links, and the Falcon GUI (the paper's Figure 12 source)
// counts raw link traffic.
const pcieWireOverhead = 1.12

// Result summarizes a completed run.
type Result struct {
	System    string
	Workload  string
	Strategy  Strategy
	Precision gpu.Precision
	Sharded   bool

	BatchPerGPU int
	Epochs      int
	Iters       int

	TotalTime  time.Duration
	EpochTimes []time.Duration
	AvgIter    time.Duration

	// Sampled averages over the run.
	AvgGPUUtil     float64
	AvgGPUMemUtil  float64
	AvgCPUUtil     float64
	AvgHostMemUtil float64
	// MemAccessFrac estimates the share of iteration time spent in
	// GPU-memory-bound phases (Figure 10's third metric).
	MemAccessFrac float64
	// FalconPCIeGBps is the mean ingress+egress traffic of the
	// Falcon-attached GPU slot ports over the run (Figure 12), in
	// decimal GB/s. Zero when no Falcon GPUs are attached.
	FalconPCIeGBps float64

	PeakGPUMem units.Bytes
	// Samples holds the sampled time series (GPU util etc.) for
	// figure rendering. A job released to a Launcher gives its sampler
	// back for the launcher's next run, so Release sets Samples to nil;
	// a Run's or Start's result keeps them.
	Samples *obs.Sampler
}

// Run trains the workload on the composed system and reports the results:
// it starts the job, drains the simulation, and collects. For concurrent
// jobs on a shared simulation (advanced-mode tenancy), use Start on each
// system, run the shared environment once, then Collect each job.
func Run(sys *cluster.System, opts Options) (*Result, error) {
	job, err := Start(sys, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.Env.Run(); err != nil {
		return nil, fmt.Errorf("train: %s on %s: %w", opts.Workload.Name, sys.Cfg.Name, err)
	}
	return job.Collect()
}

// Start sets up and launches the training job's processes without running
// the simulation. The caller runs sys.Env (once, possibly with several
// concurrent jobs) and then calls Collect. It is a nil Launcher's Start:
// the job's engine and sampler are built for it and never recycled.
func Start(sys *cluster.System, opts Options) (*Job, error) {
	return startJob(nil, sys, opts)
}

// Launcher starts training jobs and recycles the engines and samplers of
// the jobs it is handed back. An engine is everything a run is built
// from — its machines, per-rank queues, pinned-buffer resources,
// checkpoint points and collective communicator — and a sampler is the
// run's telemetry: its registry, gauges and sampled columns. Release puts
// a finished job's engine and sampler on the launcher's free lists. A
// later Start on the same network whose GPU group fits takes the engine
// and resets it in place, and takes any sampler whose last tick has
// fired, so relaunching on a warm fleet allocates little beyond the new
// job's Result and handle. Recycling changes where these structures
// live, never which events a run schedules. The zero value is ready to
// use; a nil *Launcher starts jobs but keeps nothing, and cannot release
// them. A Launcher is not safe for concurrent use.
type Launcher struct {
	free     []*engine
	samplers []*telemetry
}

// Start is the package-level Start, run on the narrowest free engine that
// fits the job's GPU group when there is one.
func (l *Launcher) Start(sys *cluster.System, opts Options) (*Job, error) {
	return startJob(l, sys, opts)
}

// Release retires j, a job whose Done signal has fired, keeps its engine
// and sampler for a later Start, and returns the system j ran on, which
// nothing the launcher keeps refers to any more: the caller may refill it
// for a later job (cluster.FleetSystem.JobSystem). A launcher that keeps
// nothing returns nil. The Result that Collect returned keeps its scalar
// fields, but its Samples become nil, because the sampler records the
// next run; every later call on j panics.
//
//perf:hot
func (l *Launcher) Release(j *Job) *cluster.System { return releaseJob(l, j) }

// startJob and releaseJob are the engine behind Launcher. They are
// variables so the engine's oracle tests can substitute the goroutine
// reference engine, or a launcher that keeps nothing, for runs driven
// through the orchestrator.
var (
	startJob   = (*Launcher).start
	releaseJob = (*Launcher).release
)

// release retires j and puts its engine and sampler on the free lists.
//
//perf:hot
func (l *Launcher) release(j *Job) *cluster.System {
	e, tel, sys := j.retire()
	l.free = append(l.free, e)
	l.samplers = append(l.samplers, tel)
	return sys
}

// telemetry starts sampling a run on sys, on a free sampler that fits it
// when there is one. A sampler whose last tick is still pending is
// passed over: the tick would step the new run.
//
//perf:hot
func (l *Launcher) telemetry(sys *cluster.System) *telemetry {
	if l != nil {
		for i, t := range l.samplers {
			if t.fits(sys) {
				last := len(l.samplers) - 1
				l.samplers[i] = l.samplers[last]
				l.samplers[last] = nil
				l.samplers = l.samplers[:last]
				return t.start(sys)
			}
		}
	}
	return newTelemetry(len(sys.FalconGPUPortLinks) > 0).start(sys)
}

// keep puts e, an engine no job runs on, on the free list; a nil
// launcher drops it.
func (l *Launcher) keep(e *engine) {
	if l != nil {
		l.free = append(l.free, e)
	}
}

// take removes and returns the narrowest free engine on net that is at
// least n ranks wide, or nil when none is (always, on a nil launcher).
//
//perf:hot
func (l *Launcher) take(net *fabric.Network, n int) *engine {
	if l == nil {
		return nil
	}
	best := -1
	for i, e := range l.free {
		if e.net == net && e.width() >= n && (best < 0 || e.width() < l.free[best].width()) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return e
}

// Job is an in-flight training run started with Start or Launcher.Start.
// It names one use of a training engine: the generation the engine had
// when the job started. Releasing the job moves the generation on, so a
// call on a released job panics instead of reaching the engine's next
// run.
type Job struct {
	e   *engine
	gen uint64
}

// eng returns the job's engine, panicking if the job was released.
func (j *Job) eng() *engine {
	if j.e.gen != j.gen {
		panic("train: call on a released job")
	}
	return j.e
}

// retire ends the job's use of its engine and returns the engine, which
// drops its references to the run (the system, the Result, the sampler
// and the options' observers), the sampler, detached from the system and
// the Result, and the system.
//
//perf:hot
func (j *Job) retire() (*engine, *telemetry, *cluster.System) {
	e := j.eng()
	if !e.done.Fired() {
		panic("train: release of a job that has not finished")
	}
	tel, sys := e.tel, e.sys
	e.res.Samples = nil
	tel.sys = nil
	e.gen++
	e.attempt = attempt{}
	return e, tel, sys
}

// Done returns the signal fired when all ranks complete (or, for an
// aborted job, when the wind-down drains).
func (j *Job) Done() *sim.Signal { return &j.eng().done }

// Abort requests a cooperative stop: every rank finishes the last
// iteration any rank has already begun (keeping in-flight collectives
// consistent) and then exits; the loader and feeders drain so the
// simulation winds down cleanly and the Done signal still fires. It must
// be called from inside the simulation. If the run has already begun its
// final iteration the abort is a no-op and the job completes normally —
// the fault lost the race against the finish line.
func (j *Job) Abort() {
	e := j.eng()
	if e.aborted || e.done.Fired() {
		return
	}
	cut := e.maxStarted + 1
	if cut >= e.totalIters {
		return
	}
	e.aborted = true
	e.cutoff = cut
}

// Aborted reports whether the job was stopped by Abort before completing.
func (j *Job) Aborted() bool { return j.eng().aborted }

// EpochsDone returns the number of epoch boundaries this run completed —
// the progress a checkpoint restart resumes from.
func (j *Job) EpochsDone() int { return len(j.eng().epochEnds) }

// LastEpochEnd returns the virtual time of the last completed epoch
// boundary, and false when no epoch completed.
func (j *Job) LastEpochEnd() (time.Duration, bool) {
	ends := j.eng().epochEnds
	if len(ends) == 0 {
		return 0, false
	}
	return ends[len(ends)-1], true
}

// start is Launcher.Start on the stepper engine.
func (l *Launcher) start(sys *cluster.System, opts Options) (*Job, error) {
	w := opts.Workload
	if w.Graph == nil {
		return nil, errors.New("train: options missing workload")
	}
	if opts.ItersPerEpoch <= 0 {
		return nil, errors.New("train: ItersPerEpoch must be set")
	}
	batch := opts.BatchPerGPU
	if batch == 0 {
		batch = w.BatchPerGPU
	}
	epochs := opts.Epochs
	if epochs == 0 {
		epochs = w.Epochs
	}
	strategy := opts.Strategy
	if strategy == "" {
		strategy = DDP
	}
	buckets := opts.Buckets
	if buckets <= 0 {
		buckets = 4
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 24
	}
	if opts.Sharded && strategy != DDP {
		return nil, errors.New("train: sharded training requires DDP")
	}
	nGPU := len(sys.GPUs)
	env := sys.Env

	// Memory admission: exactly the paper's OOM boundary (§V-C-4).
	shards := 1
	if opts.Sharded {
		shards = nGPU
	}
	need := w.MemoryNeeded(opts.Precision, batch, shards)
	for i, g := range sys.GPUs {
		if err := g.Alloc(need); err != nil {
			for _, h := range sys.GPUs[:i] {
				h.FreeMem(need)
			}
			return nil, fmt.Errorf("train: %s batch %d: %w", w.Name, batch, err)
		}
	}

	e := l.take(sys.Net, nGPU)
	if e == nil {
		comm, err := collective.New(sys.Net, sys.GPUs)
		if err != nil {
			freeGPUMem(sys, need)
			return nil, err
		}
		e = newEngine(sys.Net, comm, nGPU)
	} else if err := e.comm.Rebind(sys.GPUs); err != nil {
		l.keep(e)
		freeGPUMem(sys, need)
		return nil, err
	}
	if opts.Channels > 0 {
		e.comm.SetChannels(opts.Channels)
	}

	totalIters := epochs * opts.ItersPerEpoch
	globalBatch := batch * nGPU
	readPerIter := units.Bytes(globalBatch) * w.Data.BytesPerSample * units.Bytes(w.Data.ReadsPerSample)
	// Cold-read window: in a full-length run only the first epoch reads
	// from storage (the page cache serves the rest), i.e. a 1/Epochs
	// fraction of all iterations. The simulated run keeps that fraction
	// — scaled epochs must not overweight cold storage reads.
	coldIters := totalIters / w.Epochs
	if coldIters < 1 {
		coldIters = 1
	}
	inputBytes := units.Bytes(batch) * w.Data.InputBytesPerSample

	// Pinned staging buffers for the loader pipeline.
	staging := units.Bytes(prefetchDepth) * units.Bytes(nGPU) * inputBytes
	if err := sys.Host.AllocMem(staging); err != nil {
		l.keep(e)
		freeGPUMem(sys, need)
		return nil, fmt.Errorf("train: staging buffers: %w", err)
	}

	tel := l.telemetry(sys)

	// Checkpoint schedule: CheckpointsPerEpoch marks per epoch (workload
	// default, overridable), the last at the epoch boundary. Because the
	// simulated epoch is a shortened subset of the real one, the bytes
	// written per mark are scaled by simIters/realIters so checkpointing
	// keeps the same share of training time it has in a full-length run.
	ckptPer := w.CheckpointsPerEpoch
	if opts.CheckpointsPerEpoch > 0 {
		ckptPer = opts.CheckpointsPerEpoch
	}
	if ckptPer > opts.ItersPerEpoch {
		ckptPer = opts.ItersPerEpoch
	}
	ckptScale := float64(opts.ItersPerEpoch) / float64(w.RealItersPerEpoch(nGPU))
	if ckptScale > 1 {
		ckptScale = 1
	}
	e.scheduleCheckpoints(totalIters, epochs, opts.ItersPerEpoch, ckptPer, nGPU)

	res := &Result{
		System: sys.Cfg.Name, Workload: w.Name,
		Strategy: strategy, Precision: opts.Precision, Sharded: opts.Sharded,
		BatchPerGPU: batch, Epochs: epochs, Iters: totalIters,
	}
	e.attempt = attempt{
		sys: sys, env: env, res: res, tel: tel, opts: opts,
		strategy: strategy, nGPU: nGPU, batch: batch, buckets: buckets, workers: workers,
		need: need, staging: staging,
		resuming:       opts.ResumeEpochs > 0,
		ckptBytes:      units.Bytes(float64(w.CheckpointWriteBytes()) * ckptScale),
		readPerIter:    readPerIter,
		datasetBytes:   units.Bytes(coldIters) * readPerIter,
		inputBytes:     inputBytes,
		decodePerBatch: time.Duration(globalBatch) * w.Data.DecodePerSample,
		gradBytes:      w.GradBytes(opts.Precision),
		paramBytes:     units.Bytes(w.Graph.Params()) * opts.Precision.BytesPerElement(),
		start:          env.Now(),
		totalIters:     totalIters,
		maxStarted:     -1,
		obsEpochStart:  env.Now(),
	}
	if e.cacheKey != w.Name+"/"+w.Data.Name {
		e.cacheKey = w.Name + "/" + w.Data.Name
	}
	e.fwd, e.bwd = w.ComputeTime(dev0Spec(sys), opts.Precision, batch)
	for _, id := range sys.FalconGPUPortLinks {
		ab, ba := sys.Net.LinkTrafficSnapshot(id)
		e.portBase += ab + ba
	}
	e.spawn()
	return &Job{e: e, gen: e.gen}, nil
}

// Collect finalizes the job's metrics. It must be called after the
// simulation has run the job to completion.
func (j *Job) Collect() (*Result, error) {
	e := j.eng()
	if !e.done.Fired() {
		return nil, errors.New("train: Collect before job completion (run the environment first)")
	}
	if e.aborted {
		return nil, errors.New("train: job was aborted; no result (reschedule from the last checkpoint)")
	}
	sys, res, w := e.sys, e.res, e.opts.Workload
	elapsed := e.finish - e.start
	res.TotalTime = elapsed
	res.AvgIter = elapsed / time.Duration(res.Iters)
	prev := e.start
	for _, end := range e.epochEnds {
		res.EpochTimes = append(res.EpochTimes, end-prev)
		prev = end
	}
	fillAverages(res, &e.tel.smp)
	res.MemAccessFrac = memAccessFrac(sys, w, e.opts.Precision, e.batch, res.AvgIter)
	for _, g := range sys.GPUs {
		if g.PeakUsed() > res.PeakGPUMem {
			res.PeakGPUMem = g.PeakUsed()
		}
	}
	if len(sys.FalconGPUPortLinks) > 0 && elapsed > 0 {
		var total units.Bytes
		for _, id := range sys.FalconGPUPortLinks {
			ab, ba := sys.Net.LinkTrafficSnapshot(id)
			total += ab + ba
		}
		res.FalconPCIeGBps = float64(total-e.portBase) * pcieWireOverhead / elapsed.Seconds() / 1e9
	}
	return res, nil
}

// h2dItem is one started H2D input copy on its way from a feeder to its
// rank: the copy's flow, which the rank releases once it has landed, and
// the pinned buffer it occupies.
type h2dItem struct {
	flow *fabric.Flow
	buf  *sim.Resource
}

func dev0Spec(sys *cluster.System) gpu.Spec { return sys.GPUs[0].Spec }

// ckptPoint coordinates one all-rank checkpoint: every rank arrives, rank 0
// waits for the rest, performs the D2H copy and storage write, and fires
// done; everyone else waits on done.
type ckptPoint struct {
	wg   sim.WaitGroup
	done sim.Signal
}

// freeGPUMem returns a job's per-GPU memory admission.
func freeGPUMem(sys *cluster.System, need units.Bytes) {
	for _, g := range sys.GPUs {
		g.FreeMem(need)
	}
}

// memAccessFrac estimates the fraction of iteration time the GPU spends
// memory-bound: three activation passes (forward, backward, weight grads)
// plus parameter and gradient sweeps over HBM2.
func memAccessFrac(sys *cluster.System, w dlmodel.Workload, prec gpu.Precision, batch int, iter time.Duration) float64 {
	if iter <= 0 {
		return 0
	}
	act := w.ActPerSampleFP16
	if prec == gpu.FP32 {
		act *= 2
	}
	// float64(…) rounds the product, so no architecture fuses it (FMA).
	traffic := float64(3*float64(act)*float64(batch)) + float64(6*float64(w.GradBytes(prec)))
	memTime := traffic / float64(sys.GPUs[0].Spec.MemBW)
	frac := memTime / iter.Seconds()
	if frac > 1 {
		frac = 1
	}
	return frac
}
