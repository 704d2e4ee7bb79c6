package train

import (
	"time"

	"composable/internal/collective"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/storage"
	"composable/internal/units"
)

// The training engine runs every job as goroutine-free tracked steppers
// (sim.Env.Spawn): restore (on a resumed run), loader, one feeder and one
// rank per GPU, and join. Each is a state machine whose stage records
// where its loop is parked; a Step advances it through every stage that
// can complete at the current instant and re-arms on the first one that
// cannot, through the arm form of the primitive the loop blocks on. Arm
// forms register wake-ups exactly where the blocking forms do, so the
// machines dispatch the same events, in the same (time, seq) order, as
// goroutine processes running the same loops would — with no hand-off
// between goroutines.

// pipeline is the per-job plumbing the training machines share.
type pipeline struct {
	env      *sim.Env
	comm     *collective.Communicator
	strategy Strategy
	nGPU     int
	buckets  int
	workers  int
	// need is each GPU's memory admission and staging the pinned host
	// buffers; join returns both.
	need    units.Bytes
	staging units.Bytes

	resuming bool
	restored sim.Signal

	// prefetch bounds the loader's lookahead; queues carry loaded batches
	// to the feeders and h2dReady carries started H2D copies to the ranks.
	prefetch *sim.Resource
	queues   []*sim.Queue
	h2dReady []*sim.Queue

	ckptAt    []*ckptPoint
	ckptBytes units.Bytes

	readPerIter    units.Bytes
	datasetBytes   units.Bytes
	inputBytes     units.Bytes
	decodePerBatch time.Duration
	cacheKey       string

	fwd, bwd   time.Duration
	gradBytes  units.Bytes
	paramBytes units.Bytes

	ranksDone sim.WaitGroup
	// obsEpochStart tracks the last epoch boundary for the epoch spans;
	// only rank 0 reads or writes it.
	obsEpochStart time.Duration
}

// spawn starts the job's machines in the order the engine has always
// started its processes, so each first step takes the same event slot.
func (j *Job) spawn(rankStr []string) {
	env := j.env
	if j.resuming {
		r := &restorer{j: j}
		env.Spawn(&r.proc, "restore", r)
	}
	l := &loader{j: j}
	env.Spawn(&l.proc, "loader", l)
	feeders := make([]feeder, j.nGPU)
	for i := range feeders {
		f := &feeders[i]
		f.j, f.rank, f.dev = j, i, j.sys.GPUs[i]
		f.inflight = sim.NewResource("h2dbuf"+rankStr[i], len(f.items))
		env.Spawn(&f.proc, "feeder"+rankStr[i], f)
	}
	ranks := make([]ranker, j.nGPU)
	for i := range ranks {
		r := &ranks[i]
		r.j, r.rank, r.dev = j, i, j.sys.GPUs[i]
		env.Spawn(&r.proc, "rank"+rankStr[i], r)
	}
	jn := &joiner{j: j}
	env.Spawn(&jn.proc, "join", jn)
}

// restorer is the checkpoint restore of a resumed run: before any rank
// computes, rank 0 reads the last checkpoint back from the storage tier
// and every rank loads the restored parameters host→GPU — the price of
// resuming that the R1 checkpoint-interval experiment trades against lost
// work.
type restorer struct {
	proc  sim.Proc
	j     *Job
	stage uint8 // 0: not started, 1: reading, 2: loading to the GPUs
	t0    time.Duration
	io    storage.IOOp
	flows []*fabric.Flow
}

func (r *restorer) Step() {
	j, sp := r.j, &r.proc
	sys := j.sys
	switch r.stage {
	case 0:
		r.t0 = j.env.Now()
		r.stage = 1
		fallthrough
	case 1:
		armed, err := sys.Store.ArmRead(sp, &r.io, sys.Mem, j.ckptBytes, false)
		if err != nil {
			panic(err)
		}
		if armed {
			return
		}
		specs := make([]fabric.TransferSpec, j.nGPU)
		for i, g := range sys.GPUs {
			specs[i] = fabric.TransferSpec{Src: sys.Mem, Dst: g.Node, Size: j.ckptBytes}
		}
		r.stage = 2
		armed, err = sys.Net.ArmParallelTransfer(sp, specs, 0, &r.flows)
		if err != nil {
			panic(err)
		}
		if armed {
			return
		}
	}
	sys.Net.ReleaseFlows(&r.flows)
	now := j.env.Now()
	if j.opts.Probe != nil {
		j.opts.Probe(ProbeRestore, now)
	}
	if o := j.opts.Obs; o != nil {
		id := o.Emit(obs.CatTrain, "restore", r.t0, now)
		o.SetAttr(id, "job", int64(j.opts.ObsJob))
	}
	j.restored.Fire(j.env)
	sp.Exit()
}

// loader feeds the per-rank queues one global batch per iteration, bounded
// by prefetch tokens: the first epoch reads from storage, later epochs hit
// the page cache (storage.PageCache), and the CPU workers decode.
type loader struct {
	proc  sim.Proc
	j     *Job
	stage loaderStage
	it    int
	io    storage.IOOp
	cpu   sim.HoldOp
}

type loaderStage uint8

const (
	ldRestore loaderStage = iota // wait for the checkpoint restore
	ldNext                       // top of the loop: take prefetch tokens
	ldCache                      // tokens held: consult the page cache
	ldRead                       // cold read from storage
	ldDecode                     // CPU decode, then hand out the batch
)

//perf:hot
func (l *loader) Step() {
	j, sp := l.j, &l.proc
	sys := j.sys
	for {
		switch l.stage {
		case ldRestore:
			l.stage = ldNext
			if j.resuming && j.restored.Arm(sp) {
				return
			}
		case ldNext:
			if l.it >= j.totalIters || j.stopAt(l.it) {
				for _, q := range j.queues {
					q.Close(j.env)
				}
				sp.Exit()
				return
			}
			l.stage = ldCache
			if j.prefetch.Arm(sp, j.nGPU) {
				return
			}
		case ldCache:
			l.stage = ldDecode
			if sys.Cache.CachedBytes(j.cacheKey) < j.datasetBytes {
				l.stage = ldRead
			}
		case ldRead:
			armed, err := sys.Store.ArmRead(sp, &l.io, sys.Mem, j.readPerIter, j.opts.Workload.Data.RandomAccess)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			sys.Cache.Admit(j.cacheKey, j.readPerIter, j.datasetBytes)
			l.stage = ldDecode
		case ldDecode:
			if sys.Host.ArmRunOnCores(sp, &l.cpu, j.workers, j.decodePerBatch/time.Duration(j.workers)) {
				return
			}
			for _, q := range j.queues {
				q.Put(j.env, l.it)
			}
			l.it++
			l.stage = ldNext
		}
	}
}

// feeder is one rank's H2D copy engine: double-buffered host→GPU input
// copies that overlap the previous iteration's compute (pinned-memory
// prefetch). After an abort it keeps draining the loader's queue —
// releasing prefetch tokens without copying — so every machine winds
// down.
type feeder struct {
	proc     sim.Proc
	j        *Job
	rank     int
	dev      *gpu.Device
	inflight *sim.Resource
	it       int
	buffered bool // a pinned buffer is being acquired for iteration it
	// items holds one h2dItem per pinned buffer, handed out in turn. A copy
	// starts only once it holds a buffer, and the rank frees buffers in
	// copy order after it is done with the copy's item, so the item a new
	// copy takes is never still in use.
	items [2]h2dItem
	next  int
}

//perf:hot
func (f *feeder) Step() {
	j, sp := f.j, &f.proc
	for {
		if !f.buffered {
			_, ok, armed := j.queues[f.rank].ArmGet(sp)
			if armed {
				return
			}
			if !ok {
				j.h2dReady[f.rank].Close(j.env)
				sp.Exit()
				return
			}
			j.prefetch.Release(j.env, 1)
			if j.stopAt(f.it) {
				f.it++ // past the cutoff: no rank will consume this
				continue
			}
			f.buffered = true
			if f.inflight.Arm(sp, 1) {
				return
			}
		}
		f.buffered = false
		fl, err := j.sys.Net.StartFlow(j.sys.Mem, f.dev.Node, j.inputBytes)
		if err != nil {
			panic(err)
		}
		item := &f.items[f.next]
		f.next = (f.next + 1) % len(f.items)
		item.flow, item.buf = fl, f.inflight
		j.h2dReady[f.rank].Put(j.env, item)
		f.it++
	}
}

// ranker is one training rank's iteration loop: take the prefetched
// input, launch, forward, backward with gradient synchronization, the
// checkpoint barrier, epoch bookkeeping.
type ranker struct {
	proc  sim.Proc
	j     *Job
	rank  int
	dev   *gpu.Device
	stage rankStage
	it    int
	item  *h2dItem
	// b is the next backward bucket; last is the handle of the last
	// bucket collective started.
	b      int
	last   collective.Handle
	t0     time.Duration // start of the gradient wait
	ckptT0 time.Duration
	hold   sim.HoldOp
	xfer   fabric.TransferOp
	io     storage.IOOp
}

type rankStage uint8

const (
	rkRestore     rankStage = iota // wait for the checkpoint restore
	rkNext                         // top of the loop: cutoff check
	rkInput                        // take the next H2D copy
	rkCopied                       // wait for that copy to land
	rkLaunch                       // host-side kernel launch
	rkForward                      // forward compute
	rkDPBackward                   // DP: backward compute
	rkDPHost                       // DP: master-process gradient glue
	rkDPReduced                    // DP: gradients reduced; broadcast params
	rkBuckets                      // DDP/sharded: backward buckets
	rkGradsSynced                  // bucket collectives done
	rkSynced                       // gradient synchronization done
	rkCkpt                         // checkpoint barrier, if any
	rkCkptCopy                     // rank 0: D2H copy of the checkpoint
	rkCkptWrite                    // rank 0: checkpoint storage write
	rkCkptDone                     // barrier released
	rkEpoch                        // epoch bookkeeping, next iteration
	rkDrain                        // abort wind-down: take in-flight copies
	rkDrainCopied                  // wind-down: wait for a copy to land
)

//perf:hot
func (r *ranker) Step() {
	j, sp := r.j, &r.proc
	env, sys, w := j.env, j.sys, j.opts.Workload
	for {
		switch r.stage {
		case rkRestore:
			r.stage = rkNext
			if j.resuming && j.restored.Arm(sp) {
				return
			}
		case rkNext:
			// Abort cutoff: every rank runs exactly the iterations some
			// rank had begun when Abort fired, then stops — so
			// collectives never wait on a departed peer.
			if r.it >= j.totalIters || j.stopAt(r.it) {
				if !j.aborted {
					r.finish()
					return
				}
				r.stage = rkDrain
				continue
			}
			if r.it > j.maxStarted {
				j.maxStarted = r.it
			}
			r.stage = rkInput
		case rkInput:
			v, ok, armed := j.h2dReady[r.rank].ArmGet(sp)
			if armed {
				return
			}
			if !ok {
				panic("train: feeder closed early")
			}
			r.item = v.(*h2dItem)
			r.stage = rkCopied
			if r.item.flow.Done().Arm(sp) {
				return
			}
		case rkCopied:
			r.copied()
			r.stage = rkLaunch
		case rkLaunch:
			// Host-side dispatch (kernel launches, optimizer glue): CPU
			// time during which the GPU appears mostly busy to a coarse
			// sampler.
			if sys.Host.ArmRunOnCore(sp, &r.hold, w.LaunchOverhead) {
				return
			}
			r.dev.MarkBusyFor(time.Duration(float64(w.LaunchOverhead) * launchBusyFraction))
			r.stage = rkForward
		case rkForward:
			if r.dev.ArmCompute(sp, &r.hold, j.fwd) {
				return
			}
			if j.strategy == DP {
				r.stage = rkDPBackward
			} else {
				r.b = 0
				r.stage = rkBuckets
			}
		case rkDPBackward:
			if r.dev.ArmCompute(sp, &r.hold, j.bwd) {
				return
			}
			r.stage = rkDPHost
		case rkDPHost:
			if sys.Host.ArmRunOnCore(sp, &r.hold, w.DPPerIterOverhead) {
				return
			}
			r.t0 = env.Now()
			r.stage = rkDPReduced
			if j.comm.ArmReduceToRoot(sp, r.rank, 0, j.gradBytes) {
				return
			}
		case rkDPReduced:
			r.stage = rkSynced
			if j.comm.ArmBroadcast(sp, r.rank, 0, j.paramBytes) {
				return
			}
		case rkBuckets:
			if r.b < j.buckets {
				if r.dev.ArmCompute(sp, &r.hold, j.bwd/time.Duration(j.buckets)) {
					return
				}
				bucket := j.gradBytes / units.Bytes(j.buckets)
				if j.opts.Sharded {
					r.last = j.comm.StartReduceScatter(r.rank, bucket)
				} else {
					r.last = j.comm.StartAllReduce(r.rank, bucket)
				}
				r.b++
				continue
			}
			r.t0 = env.Now()
			// One park at the last bucket's completion: bucket ops run one
			// at a time in join order on the communicator, so the last one
			// completes after every earlier one, and waiting on it alone
			// resumes exactly where waiting on all of them did. Earlier
			// buckets' ops may already be recycled; their handles are gone.
			r.stage = rkGradsSynced
			if r.last.Arm(sp) {
				return
			}
		case rkGradsSynced:
			r.stage = rkSynced
			// Sharded: shard-local optimizer step, then parameter
			// all-gather.
			if j.opts.Sharded && j.comm.StartAllGather(r.rank, j.paramBytes).Arm(sp) {
				return
			}
		case rkSynced:
			r.dev.MarkBusyFor(env.Now() - r.t0)
			r.stage = rkCkpt
		case rkCkpt:
			// Checkpoint barrier (Figure 9's periodic dips).
			cp := j.ckptAt[r.it]
			if cp == nil {
				r.stage = rkEpoch
				continue
			}
			r.ckptT0 = env.Now()
			cp.wg.Done(env)
			if r.rank == 0 {
				r.stage = rkCkptCopy
				if cp.wg.Arm(sp) {
					return
				}
			} else {
				r.stage = rkCkptDone
				if cp.done.Arm(sp) {
					return
				}
			}
		case rkCkptCopy:
			armed, err := sys.Net.ArmTransfer(sp, &r.xfer, sys.GPUs[0].Node, sys.Mem, j.ckptBytes)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			r.stage = rkCkptWrite
		case rkCkptWrite:
			armed, err := sys.Store.ArmWrite(sp, &r.io, sys.Mem, j.ckptBytes)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			j.ckptAt[r.it].done.Fire(env)
			r.stage = rkCkptDone
		case rkCkptDone:
			if r.rank == 0 {
				now := env.Now()
				if j.opts.Probe != nil {
					j.opts.Probe(ProbeCheckpoint, now)
				}
				if o := j.opts.Obs; o != nil {
					id := o.Emit(obs.CatTrain, "checkpoint", r.ckptT0, now)
					o.SetAttr(id, "job", int64(j.opts.ObsJob))
				}
			}
			r.stage = rkEpoch
		case rkEpoch:
			if r.rank == 0 && (r.it+1)%j.opts.ItersPerEpoch == 0 {
				r.epochEnd()
			}
			r.it++
			r.stage = rkNext
		case rkDrain:
			// Abort wind-down: drain copies the feeder had in flight
			// before it saw the cutoff, releasing their pinned buffers so
			// the feeder can finish discarding and every machine exits.
			v, ok, armed := j.h2dReady[r.rank].ArmGet(sp)
			if armed {
				return
			}
			if !ok {
				r.finish()
				return
			}
			r.item = v.(*h2dItem)
			r.stage = rkDrainCopied
			if r.item.flow.Done().Arm(sp) {
				return
			}
		case rkDrainCopied:
			r.copied()
			r.stage = rkDrain
		}
	}
}

// copied retires the input copy that has landed: its flow goes back to
// the fabric's pool and its pinned buffer to the feeder, which may then
// reuse the item.
//
//perf:hot
func (r *ranker) copied() {
	it := r.item
	r.item = nil
	r.j.sys.Net.ReleaseFlow(it.flow)
	it.flow = nil
	it.buf.Release(r.j.env, 1)
}

// epochEnd records rank 0's epoch boundary.
func (r *ranker) epochEnd() {
	j := r.j
	now := j.env.Now()
	j.epochEnds = append(j.epochEnds, now)
	if j.opts.Probe != nil {
		j.opts.Probe(ProbeEpoch, now)
	}
	if o := j.opts.Obs; o != nil {
		id := o.Emit(obs.CatTrain, "epoch", j.obsEpochStart, now)
		o.SetAttr(id, "job", int64(j.opts.ObsJob))
		o.SetAttr(id, "epoch", int64(len(j.epochEnds)+j.opts.ResumeEpochs))
		j.obsEpochStart = now
	}
}

// finish reports the rank to join and ends its machine.
func (r *ranker) finish() {
	r.j.ranksDone.Done(r.j.env)
	r.proc.Exit()
}

// joiner waits for every rank, then releases the job's resources and
// fires its Done signal.
type joiner struct {
	proc sim.Proc
	j    *Job
}

func (jn *joiner) Step() {
	j := jn.j
	if j.ranksDone.Arm(&jn.proc) {
		return
	}
	now := j.env.Now()
	j.finish = now
	j.smp.Stop()
	j.sys.Host.FreeMem(j.staging)
	freeGPUMem(j.sys, j.need)
	final := ProbeDone
	if j.aborted {
		final = ProbeAbort
	}
	if j.opts.Probe != nil {
		j.opts.Probe(final, now)
	}
	if o := j.opts.Obs; o != nil {
		id := o.Instant(obs.CatTrain, final)
		o.SetAttr(id, "job", int64(j.opts.ObsJob))
	}
	env := j.env
	// Every machine has exited: drop the plumbing, so a finished job that
	// its caller keeps (the orchestrator keeps every attempt) does not pin
	// the communicator, the queues and the checkpoint points.
	j.pipeline = pipeline{}
	j.done.Fire(env)
	jn.proc.Exit()
}
