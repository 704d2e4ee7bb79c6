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
	"strconv"
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
	// figure rendering.
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

// Job is an in-flight training run started with Start.
type Job struct {
	sys       *cluster.System
	res       *Result
	smp       *obs.Sampler
	opts      Options
	batch     int
	start     time.Duration
	finish    time.Duration
	epochEnds []time.Duration
	portBase  units.Bytes
	done      sim.Signal
	// pipeline is what the job's machines share while they run (see
	// engine.go); join clears it.
	pipeline

	// Abort machinery: when a fault kills the job, every rank stops at the
	// same iteration boundary (cutoff) so no collective is left waiting on
	// a rank that already quit — the simulated analog of NCCL tearing the
	// process group down after a peer dies.
	totalIters int
	maxStarted int // highest iteration any rank has begun (-1 before iter 0)
	cutoff     int
	aborted    bool
}

// Done returns the signal fired when all ranks complete (or, for an
// aborted job, when the wind-down drains).
func (j *Job) Done() *sim.Signal { return &j.done }

// Abort requests a cooperative stop: every rank finishes the last
// iteration any rank has already begun (keeping in-flight collectives
// consistent) and then exits; the loader and feeders drain so the
// simulation winds down cleanly and the Done signal still fires. It must
// be called from inside the simulation. If the run has already begun its
// final iteration the abort is a no-op and the job completes normally —
// the fault lost the race against the finish line.
func (j *Job) Abort() {
	if j.aborted || j.done.Fired() {
		return
	}
	cut := j.maxStarted + 1
	if cut >= j.totalIters {
		return
	}
	j.aborted = true
	j.cutoff = cut
}

// Aborted reports whether the job was stopped by Abort before completing.
func (j *Job) Aborted() bool { return j.aborted }

// EpochsDone returns the number of epoch boundaries this run completed —
// the progress a checkpoint restart resumes from.
func (j *Job) EpochsDone() int { return len(j.epochEnds) }

// LastEpochEnd returns the virtual time of the last completed epoch
// boundary, and false when no epoch completed.
func (j *Job) LastEpochEnd() (time.Duration, bool) {
	if len(j.epochEnds) == 0 {
		return 0, false
	}
	return j.epochEnds[len(j.epochEnds)-1], true
}

// stopAt reports whether iteration it is past the abort cutoff.
func (j *Job) stopAt(it int) bool { return j.aborted && it >= j.cutoff }

// Start sets up and launches the training job's processes without running
// the simulation. The caller runs sys.Env (once, possibly with several
// concurrent jobs) and then calls Collect.
func Start(sys *cluster.System, opts Options) (*Job, error) { return startJob(sys, opts) }

// startJob is the engine behind Start. It is a variable so the engine's
// oracle test can substitute the goroutine-process reference engine for
// runs driven through the orchestrator.
var startJob = start

func start(sys *cluster.System, opts Options) (*Job, error) {
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

	comm, err := collective.New(sys.Net, sys.GPUs)
	if err != nil {
		freeGPUMem(sys, need)
		return nil, err
	}
	if opts.Channels > 0 {
		comm.SetChannels(opts.Channels)
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
	datasetBytes := units.Bytes(coldIters) * readPerIter
	inputBytes := units.Bytes(batch) * w.Data.InputBytesPerSample
	decodePerBatch := time.Duration(globalBatch) * w.Data.DecodePerSample

	// Pinned staging buffers for the loader pipeline.
	staging := units.Bytes(prefetchDepth) * units.Bytes(nGPU) * inputBytes
	if err := sys.Host.AllocMem(staging); err != nil {
		freeGPUMem(sys, need)
		return nil, fmt.Errorf("train: staging buffers: %w", err)
	}

	smp := newSampler(sys)

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
	// ckptAt is indexed by iteration (nil: no checkpoint there): the rank
	// loop probes it every iteration, so it must be a slice load, not a
	// map lookup.
	ckptAt := make([]*ckptPoint, totalIters)
	ckptScale := float64(opts.ItersPerEpoch) / float64(w.RealItersPerEpoch(nGPU))
	if ckptScale > 1 {
		ckptScale = 1
	}
	ckptBytes := units.Bytes(float64(w.CheckpointWriteBytes()) * ckptScale)
	for e := 0; e < epochs; e++ {
		for j := 0; j < ckptPer; j++ {
			it := e*opts.ItersPerEpoch + (j+1)*opts.ItersPerEpoch/ckptPer - 1
			if it >= 0 && it < totalIters {
				ckptAt[it] = newCkptPoint(nGPU)
			}
		}
	}

	// Per-rank process/queue names, computed once up front (strconv, not
	// fmt) so the spawn paths below never format.
	rankStr := make([]string, nGPU)
	for i := range rankStr {
		rankStr[i] = strconv.Itoa(i)
	}

	res := &Result{
		System: sys.Cfg.Name, Workload: w.Name,
		Strategy: strategy, Precision: opts.Precision, Sharded: opts.Sharded,
		BatchPerGPU: batch, Epochs: epochs, Iters: totalIters,
	}
	job := &Job{
		sys: sys, res: res, smp: smp, opts: opts, batch: batch, start: env.Now(),
		totalIters: totalIters, maxStarted: -1,
	}
	for _, id := range sys.FalconGPUPortLinks {
		ab, ba := sys.Net.LinkTrafficSnapshot(id)
		job.portBase += ab + ba
	}

	job.pipeline = pipeline{
		env: env, strategy: strategy, nGPU: nGPU, buckets: buckets, workers: workers,
		comm: comm, need: need, staging: staging,
		resuming:    opts.ResumeEpochs > 0,
		prefetch:    sim.NewResource("loader.prefetch", prefetchDepth*nGPU),
		queues:      make([]*sim.Queue, nGPU),
		h2dReady:    make([]*sim.Queue, nGPU),
		ckptAt:      ckptAt,
		ckptBytes:   ckptBytes,
		readPerIter: readPerIter, datasetBytes: datasetBytes, inputBytes: inputBytes,
		decodePerBatch: decodePerBatch,
		cacheKey:       w.Name + "/" + w.Data.Name,
		gradBytes:      w.GradBytes(opts.Precision),
		paramBytes:     units.Bytes(w.Graph.Params()) * opts.Precision.BytesPerElement(),
		obsEpochStart:  env.Now(),
	}
	job.fwd, job.bwd = w.ComputeTime(dev0Spec(sys), opts.Precision, batch)
	for i := range rankStr {
		job.queues[i] = sim.NewQueue("batches.gpu" + rankStr[i])
		job.h2dReady[i] = sim.NewQueue("h2d.gpu" + rankStr[i])
	}
	job.ranksDone.Add(nGPU)
	job.spawn(rankStr)
	return job, nil
}

// Collect finalizes the job's metrics. It must be called after the
// simulation has run the job to completion.
func (j *Job) Collect() (*Result, error) {
	if !j.done.Fired() {
		return nil, errors.New("train: Collect before job completion (run the environment first)")
	}
	if j.aborted {
		return nil, errors.New("train: job was aborted; no result (reschedule from the last checkpoint)")
	}
	sys, res, w := j.sys, j.res, j.opts.Workload
	elapsed := j.finish - j.start
	res.TotalTime = elapsed
	res.AvgIter = elapsed / time.Duration(res.Iters)
	prev := j.start
	for _, e := range j.epochEnds {
		res.EpochTimes = append(res.EpochTimes, e-prev)
		prev = e
	}
	fillAverages(res, j.smp)
	res.MemAccessFrac = memAccessFrac(sys, w, j.opts.Precision, j.batch, res.AvgIter)
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
		res.FalconPCIeGBps = float64(total-j.portBase) * pcieWireOverhead / elapsed.Seconds() / 1e9
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

func newCkptPoint(n int) *ckptPoint {
	cp := &ckptPoint{}
	cp.wg.Add(n)
	return cp
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
