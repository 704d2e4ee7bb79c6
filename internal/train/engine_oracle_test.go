package train

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/collective"
	"composable/internal/dlmodel"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/sim/simtest"
	"composable/internal/units"
)

// The goroutine engine: the training engine as it ran before the stepper
// engine, every job as goroutine processes (Env.Go) blocking on the
// primitives' blocking forms. It is kept verbatim as the stepper engine's
// oracle: both must dispatch the same events in the same order (equal
// event digests) and produce the same results.

// UseGoroutineEngine routes Start through the goroutine engine until the
// returned function restores the stepper engine. Tests that drive
// training through other layers (the orchestrator) use it to run the
// oracle end to end; they must not run in parallel with other tests. The
// goroutine engine has no machines to recycle, so Release keeps nothing
// meanwhile.
func UseGoroutineEngine() (restore func()) {
	startJob, releaseJob = goroutineStart, releaseNothing
	return func() { startJob, releaseJob = (*Launcher).start, (*Launcher).release }
}

// UseFreshEngines makes every Launcher's Release keep nothing, so each
// Start builds its engine and sampler anew and a caller that recycles the
// released job's system (the orchestrator's job views) builds that anew
// too, until the returned function restores recycling. It is the
// recycled engine's oracle: a run must dispatch the same events either
// way. The same caveat as UseGoroutineEngine applies.
func UseFreshEngines() (restore func()) {
	releaseJob = releaseNothing
	return func() { releaseJob = (*Launcher).release }
}

// releaseNothing is a Release that retires the job and drops its engine,
// its sampler and its system.
func releaseNothing(_ *Launcher, j *Job) *cluster.System {
	j.retire()
	return nil
}

// goroutineStart is Start as the goroutine engine implemented it.
func goroutineStart(_ *Launcher, sys *cluster.System, opts Options) (*Job, error) {
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
	freeAll := func() {
		for _, g := range sys.GPUs {
			g.FreeMem(need)
		}
	}

	comm, err := collective.New(sys.Net, sys.GPUs)
	if err != nil {
		freeAll()
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
		freeAll()
		return nil, fmt.Errorf("train: staging buffers: %w", err)
	}

	tel := newTelemetry(len(sys.FalconGPUPortLinks) > 0).start(sys)

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
	for ep := 0; ep < epochs; ep++ {
		for j := 0; j < ckptPer; j++ {
			it := ep*opts.ItersPerEpoch + (j+1)*opts.ItersPerEpoch/ckptPer - 1
			if it >= 0 && it < totalIters {
				ckptAt[it] = newCkptPoint(nGPU)
			}
		}
	}

	// Loader: one process feeding per-rank queues, bounded by prefetch
	// tokens; the first epoch reads from storage, later epochs hit the
	// page cache (storage.PageCache).
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
	e := &engine{attempt: attempt{
		sys: sys, res: res, tel: tel, opts: opts, batch: batch, start: env.Now(),
		totalIters: totalIters, maxStarted: -1,
	}}
	job := &Job{e: e}
	for _, id := range sys.FalconGPUPortLinks {
		ab, ba := sys.Net.LinkTrafficSnapshot(id)
		e.portBase += ab + ba
	}

	// Checkpoint restore on restart: before any rank computes, rank 0
	// reads the last checkpoint back from the storage tier and every rank
	// loads the restored parameters host→GPU — the price of resuming that
	// the R1 checkpoint-interval experiment trades against lost work.
	var restored sim.Signal
	resuming := opts.ResumeEpochs > 0
	if resuming {
		env.Go("restore", func(p *sim.Proc) {
			restoreT0 := p.Now()
			if err := sys.Store.Read(p, sys.Mem, ckptBytes, false); err != nil {
				panic(err)
			}
			specs := make([]fabric.TransferSpec, nGPU)
			for i, g := range sys.GPUs {
				specs[i] = fabric.TransferSpec{Src: sys.Mem, Dst: g.Node, Size: ckptBytes}
			}
			if err := sys.Net.ParallelTransfer(p, specs); err != nil {
				panic(err)
			}
			if opts.Probe != nil {
				opts.Probe(ProbeRestore, p.Now())
			}
			if opts.Obs != nil {
				id := opts.Obs.Emit(obs.CatTrain, "restore", restoreT0, p.Now())
				opts.Obs.SetAttr(id, "job", int64(opts.ObsJob))
			}
			restored.Fire(env)
		})
	}

	prefetch := sim.NewResource("loader.prefetch", prefetchDepth*nGPU)
	queues := make([]*sim.Queue, nGPU)
	for i := range queues {
		queues[i] = sim.NewQueue("batches.gpu" + rankStr[i])
	}
	cacheKey := w.Name + "/" + w.Data.Name
	env.Go("loader", func(p *sim.Proc) {
		if resuming {
			restored.Wait(p)
		}
		for it := 0; it < totalIters && !e.stopAt(it); it++ {
			prefetch.Acquire(p, nGPU)
			if sys.Cache.CachedBytes(cacheKey) < datasetBytes {
				if err := sys.Store.Read(p, sys.Mem, readPerIter, w.Data.RandomAccess); err != nil {
					panic(err)
				}
				sys.Cache.Admit(cacheKey, readPerIter, datasetBytes)
			}
			sys.Host.RunOnCores(p, workers, decodePerBatch/time.Duration(workers))
			for _, q := range queues {
				q.Put(env, it)
			}
		}
		for _, q := range queues {
			q.Close(env)
		}
	})

	// Per-rank H2D feeders: double-buffered host→GPU input copies that
	// overlap the previous iteration's compute (pinned-memory prefetch).
	// After an abort they keep draining the loader's queue — releasing
	// prefetch tokens without copying — so every process winds down.
	h2dReady := make([]*sim.Queue, nGPU)
	for i := range h2dReady {
		h2dReady[i] = sim.NewQueue("h2d.gpu" + rankStr[i])
	}
	for rank := 0; rank < nGPU; rank++ {
		dev := sys.GPUs[rank]
		env.Go("feeder"+rankStr[rank], func(p *sim.Proc) {
			inflight := sim.NewResource("h2dbuf"+rankStr[rank], 2)
			for it := 0; ; it++ {
				_, ok := queues[rank].Get(p)
				if !ok {
					h2dReady[rank].Close(env)
					return
				}
				prefetch.Release(env, 1)
				if e.stopAt(it) {
					continue // past the cutoff: no rank will consume this
				}
				inflight.Acquire(p, 1)
				f, err := sys.Net.StartFlow(sys.Mem, dev.Node, inputBytes)
				if err != nil {
					panic(err)
				}
				h2dReady[rank].Put(env, &h2dItem{flow: f, buf: inflight})
			}
		})
	}

	fwd, bwd := w.ComputeTime(dev0Spec(sys), opts.Precision, batch)
	gradBytes := w.GradBytes(opts.Precision)
	paramBytes := units.Bytes(w.Graph.Params()) * opts.Precision.BytesPerElement()

	var ranksDone sim.WaitGroup
	ranksDone.Add(nGPU)

	// obsEpochStart tracks the last epoch boundary for the epoch spans;
	// only rank 0 reads or writes it.
	obsEpochStart := env.Now()
	for rank := 0; rank < nGPU; rank++ {
		dev := sys.GPUs[rank]
		env.Go("rank"+rankStr[rank], func(p *sim.Proc) {
			if resuming {
				restored.Wait(p)
			}
			// The last bucket collective's handle: bucket ops run one at
			// a time in join order, so it completes after every earlier
			// bucket's op.
			var last collective.Handle
			for it := 0; it < totalIters; it++ {
				// Abort cutoff: every rank runs exactly the iterations
				// some rank had begun when Abort fired, then stops — so
				// collectives never wait on a departed peer.
				if e.stopAt(it) {
					break
				}
				if it > e.maxStarted {
					e.maxStarted = it
				}
				// Input batch: wait for the prefetched H2D copy.
				v, ok := h2dReady[rank].Get(p)
				if !ok {
					panic("train: feeder closed early")
				}
				item := v.(*h2dItem)
				item.flow.Done().Wait(p)
				item.buf.Release(env, 1)

				// Host-side dispatch (kernel launches, optimizer glue):
				// CPU time during which the GPU appears mostly busy to
				// a coarse sampler.
				sys.Host.RunOnCore(p, w.LaunchOverhead)
				dev.MarkBusyFor(time.Duration(float64(w.LaunchOverhead) * launchBusyFraction))

				// Forward.
				dev.Compute(p, fwd)

				// Backward + gradient synchronization.
				switch {
				case strategy == DP:
					dev.Compute(p, bwd)
					sys.Host.RunOnCore(p, w.DPPerIterOverhead)
					t0 := p.Now()
					comm.ReduceToRoot(p, rank, 0, gradBytes)
					comm.Broadcast(p, rank, 0, paramBytes)
					dev.MarkBusyFor(p.Now() - t0)
				case opts.Sharded:
					for b := 0; b < buckets; b++ {
						dev.Compute(p, bwd/time.Duration(buckets))
						last = comm.StartReduceScatter(rank, gradBytes/units.Bytes(buckets))
					}
					t0 := p.Now()
					// One park at the last bucket's completion: bucket ops
					// serialize on the communicator, so waiting on the last
					// resumes exactly where waiting one-by-one did.
					last.Wait(p)
					// Shard-local optimizer step, then parameter
					// all-gather.
					comm.StartAllGather(rank, paramBytes).Wait(p)
					dev.MarkBusyFor(p.Now() - t0)
				default: // DDP
					for b := 0; b < buckets; b++ {
						dev.Compute(p, bwd/time.Duration(buckets))
						last = comm.StartAllReduce(rank, gradBytes/units.Bytes(buckets))
					}
					t0 := p.Now()
					last.Wait(p)
					dev.MarkBusyFor(p.Now() - t0)
				}

				// Checkpoint barrier (Figure 9's periodic dips).
				if cp := ckptAt[it]; cp != nil {
					ckptT0 := p.Now()
					cp.arrive(env, p, rank, func(cb *sim.Proc) {
						if err := sys.Net.Transfer(cb, sys.GPUs[0].Node, sys.Mem, ckptBytes); err != nil {
							panic(err)
						}
						if err := sys.Store.Write(cb, sys.Mem, ckptBytes); err != nil {
							panic(err)
						}
					})
					if rank == 0 {
						if opts.Probe != nil {
							opts.Probe(ProbeCheckpoint, p.Now())
						}
						if opts.Obs != nil {
							id := opts.Obs.Emit(obs.CatTrain, "checkpoint", ckptT0, p.Now())
							opts.Obs.SetAttr(id, "job", int64(opts.ObsJob))
						}
					}
				}
				if rank == 0 && (it+1)%opts.ItersPerEpoch == 0 {
					e.epochEnds = append(e.epochEnds, p.Now())
					if opts.Probe != nil {
						opts.Probe(ProbeEpoch, p.Now())
					}
					if opts.Obs != nil {
						id := opts.Obs.Emit(obs.CatTrain, "epoch", obsEpochStart, p.Now())
						opts.Obs.SetAttr(id, "job", int64(opts.ObsJob))
						opts.Obs.SetAttr(id, "epoch", int64(len(e.epochEnds)+opts.ResumeEpochs))
						obsEpochStart = p.Now()
					}
				}
			}
			// Abort wind-down: drain copies the feeder had in flight before
			// it saw the cutoff, releasing their pinned buffers so the
			// feeder can finish discarding and every process exits.
			if e.aborted {
				for {
					v, ok := h2dReady[rank].Get(p)
					if !ok {
						break
					}
					item := v.(*h2dItem)
					item.flow.Done().Wait(p)
					item.buf.Release(env, 1)
				}
			}
			ranksDone.Done(env)
		})
	}

	env.Go("join", func(p *sim.Proc) {
		ranksDone.Wait(p)
		e.finish = p.Now()
		tel.smp.Stop()
		sys.Host.FreeMem(staging)
		freeAll()
		final := ProbeDone
		if e.aborted {
			final = ProbeAbort
		}
		if opts.Probe != nil {
			opts.Probe(final, p.Now())
		}
		if opts.Obs != nil {
			id := opts.Obs.Instant(obs.CatTrain, final)
			opts.Obs.SetAttr(id, "job", int64(opts.ObsJob))
		}
		e.done.Fire(env)
	})
	return job, nil
}

func newCkptPoint(n int) *ckptPoint {
	cp := &ckptPoint{}
	cp.wg.Add(n)
	return cp
}

func (cp *ckptPoint) arrive(env *sim.Env, p *sim.Proc, rank int, write func(*sim.Proc)) {
	cp.wg.Done(env)
	if rank == 0 {
		cp.wg.Wait(p)
		write(p)
		cp.done.Fire(env)
		return
	}
	cp.done.Wait(p)
}

// engineRun is what one engine produced for an oracle case.
type engineRun struct {
	startErr string // Start's error (OOM admission), if any
	result   string // the Result fingerprint, or Collect's error
	events   uint64
	probes   []string
	trace    []byte // the exported obs trace
	metrics  []byte // the exported obs metrics CSV
}

// oracleCase is one training run both engines execute.
type oracleCase struct {
	name    string
	cfg     cluster.Config
	opts    Options
	abortAt time.Duration // > 0: Abort the job at this instant
}

// engineSetup runs c with the given engine, recording into out.
func engineSetup(startFn func(*Launcher, *cluster.System, Options) (*Job, error), c oracleCase, out *engineRun) simtest.Setup {
	return func(env *sim.Env) error {
		*out = engineRun{}
		col := obs.NewCollector()
		col.Attach(env)
		sys, err := cluster.Compose(env, c.cfg)
		if err != nil {
			return err
		}
		sys.Net.SetObs(col)
		opts := c.opts
		opts.Obs, opts.ObsJob = col, 7
		opts.Probe = func(ev string, at time.Duration) {
			out.probes = append(out.probes, ev+"@"+strconv.FormatInt(int64(at), 10))
		}
		job, err := startFn(new(Launcher), sys, opts)
		if err != nil {
			out.startErr = err.Error()
			return nil
		}
		if c.abortAt > 0 {
			env.Schedule(c.abortAt, job.Abort)
		}
		if err := env.Run(); err != nil {
			return err
		}
		out.events = env.EventCount()
		if res, err := job.Collect(); err != nil {
			out.result = "collect: " + err.Error()
		} else {
			out.result = resultFingerprint(res)
		}
		var tr, mc bytes.Buffer
		if err := col.WriteTrace(&tr); err != nil {
			return err
		}
		if err := col.WriteMetricsCSV(&mc); err != nil {
			return err
		}
		out.trace, out.metrics = tr.Bytes(), mc.Bytes()
		return nil
	}
}

// resultFingerprint renders every deterministic scalar of a result
// exactly, plus the sampled series lengths while the result still has
// its samples.
func resultFingerprint(r *Result) string {
	s := fmt.Sprintf("sys=%s wl=%s strat=%s prec=%v sharded=%t batch=%d epochs=%d iters=%d total=%d avgIter=%d peak=%d epochs=%v",
		r.System, r.Workload, r.Strategy, r.Precision, r.Sharded, r.BatchPerGPU, r.Epochs, r.Iters,
		int64(r.TotalTime), int64(r.AvgIter), int64(r.PeakGPUMem), r.EpochTimes)
	for _, f := range []float64{r.AvgGPUUtil, r.AvgGPUMemUtil, r.AvgCPUUtil, r.AvgHostMemUtil, r.MemAccessFrac, r.FalconPCIeGBps} {
		s += " " + strconv.FormatFloat(f, 'g', -1, 64)
	}
	if r.Samples == nil {
		return s + " samples released"
	}
	for _, name := range []string{SeriesGPUUtil, SeriesCPUUtil} {
		s += fmt.Sprintf(" %s:%d", name, r.Samples.Series(name).Len())
	}
	return s
}

// checkEngines runs c under both engines and fails t unless the event
// streams, event counts, lifecycle probes, results and obs exports are
// identical.
func checkEngines(t *testing.T, c oracleCase) engineRun {
	t.Helper()
	var gor, stp engineRun
	if _, err := simtest.Compare(engineSetup(goroutineStart, c, &gor), engineSetup((*Launcher).start, c, &stp)); err != nil {
		t.Fatalf("%s: goroutine vs stepper engine: %v", c.name, err)
	}
	switch {
	case gor.startErr != stp.startErr:
		t.Fatalf("%s: start error: goroutine %q, stepper %q", c.name, gor.startErr, stp.startErr)
	case gor.events != stp.events:
		t.Fatalf("%s: sim.events: goroutine %d, stepper %d", c.name, gor.events, stp.events)
	case gor.result != stp.result:
		t.Fatalf("%s: result:\ngoroutine %s\nstepper   %s", c.name, gor.result, stp.result)
	case fmt.Sprint(gor.probes) != fmt.Sprint(stp.probes):
		t.Fatalf("%s: probes:\ngoroutine %v\nstepper   %v", c.name, gor.probes, stp.probes)
	case string(gor.trace) != string(stp.trace):
		t.Fatalf("%s: exported traces differ", c.name)
	case string(gor.metrics) != string(stp.metrics):
		t.Fatalf("%s: exported metrics differ", c.name)
	}
	return stp
}

// TestEngineOracleTableGrid runs every Table III config × Table II model
// with DDP, DP and sharded DDP, in FP16 and FP32, under both engines.
func TestEngineOracleTableGrid(t *testing.T) {
	type variant struct {
		strategy Strategy
		sharded  bool
	}
	ran, oom := 0, 0
	for _, cfg := range cluster.TableIIIConfigs() {
		for _, w := range dlmodel.Benchmarks() {
			for _, v := range []variant{{DDP, false}, {DP, false}, {DDP, true}} {
				for _, prec := range []gpu.Precision{gpu.FP16, gpu.FP32} {
					c := oracleCase{
						name: fmt.Sprintf("%s/%s/%s/sharded=%t/%v", cfg.Name, w.Name, v.strategy, v.sharded, prec),
						cfg:  cfg,
						opts: Options{
							Workload: w, Precision: prec, Strategy: v.strategy, Sharded: v.sharded,
							Epochs: 2, ItersPerEpoch: 5, CheckpointsPerEpoch: 2,
						},
					}
					if got := checkEngines(t, c); got.startErr != "" {
						oom++
					} else {
						ran++
					}
				}
			}
		}
	}
	if ran == 0 || oom == 0 {
		t.Fatalf("grid ran %d cells and rejected %d at admission; want both paths covered", ran, oom)
	}
}

// TestEngineOracleResumeAndAbort covers a checkpoint restart (the restore
// machine) and an aborted run (the wind-down), DDP and DP.
func TestEngineOracleResumeAndAbort(t *testing.T) {
	for _, strategy := range []Strategy{DDP, DP} {
		opts := Options{
			Workload: dlmodel.ResNet50Workload(), Precision: gpu.FP16, Strategy: strategy,
			Epochs: 2, ItersPerEpoch: 6,
		}
		resume := opts
		resume.ResumeEpochs = 1
		got := checkEngines(t, oracleCase{name: "resume/" + string(strategy), cfg: cluster.FalconNVMeConfig(), opts: resume})
		if len(got.probes) == 0 || got.probes[0][:len(ProbeRestore)] != ProbeRestore {
			t.Fatalf("resume/%s: first probe %v, want %s", strategy, got.probes, ProbeRestore)
		}
		full := checkEngines(t, oracleCase{name: "full/" + string(strategy), cfg: cluster.HybridGPUsConfig(), opts: opts})
		total, err := strconv.ParseInt(full.probes[len(full.probes)-1][len(ProbeDone)+1:], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		aborted := checkEngines(t, oracleCase{
			name: "abort/" + string(strategy), cfg: cluster.HybridGPUsConfig(), opts: opts,
			abortAt: time.Duration(total) / 2,
		})
		if last := aborted.probes[len(aborted.probes)-1]; last[:len(ProbeAbort)] != ProbeAbort {
			t.Fatalf("abort/%s: last probe %q, want %s", strategy, last, ProbeAbort)
		}
	}
}
