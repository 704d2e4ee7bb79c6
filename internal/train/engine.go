package train

import (
	"strconv"
	"time"

	"composable/internal/cluster"
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

// engine is what a job runs on: the machines, the plumbing they share and
// the state of the current attempt. A Launcher recycles engines, so the
// parts that cost allocations — machines, per-rank queues and buffers,
// checkpoint points, the communicator — are built once, for the widest
// group the engine serves, and reset in place by every later start;
// everything else lives in attempt and is overwritten wholesale.
type engine struct {
	// gen counts the engine's releases; a Job holds the generation it was
	// started under.
	gen  uint64
	net  *fabric.Network
	comm *collective.Communicator
	// cacheKey is the page-cache key of the dataset the engine last
	// loaded; it outlives the attempt, so relaunching the same workload
	// does not build the key again.
	cacheKey string

	attempt

	done      sim.Signal
	restored  sim.Signal
	ranksDone sim.WaitGroup

	// prefetch bounds the loader's lookahead; queues carry loaded batches
	// to the feeders and h2dReady carries started H2D copies to the ranks.
	// The per-rank slices are as long as the attempt's group and as
	// wide as the engine.
	prefetch *sim.Resource
	queues   []*sim.Queue
	h2dReady []*sim.Queue

	// ckptAt is indexed by iteration (nil: no checkpoint there): the rank
	// loop probes it every iteration, so it must be a slice load, not a
	// map lookup. Its points come from ckpts, which keeps every point the
	// engine has made.
	ckptAt []*ckptPoint
	ckpts  []*ckptPoint

	epochEnds []time.Duration

	restorer restorer
	loader   loader
	feeders  []feeder
	ranks    []ranker
	joiner   joiner
}

// attempt is one run's configuration and progress.
type attempt struct {
	sys  *cluster.System
	env  *sim.Env
	res  *Result
	tel  *telemetry
	opts Options

	strategy Strategy
	nGPU     int
	batch    int
	buckets  int
	workers  int
	// need is each GPU's memory admission and staging the pinned host
	// buffers; join returns both.
	need     units.Bytes
	staging  units.Bytes
	resuming bool

	ckptBytes      units.Bytes
	readPerIter    units.Bytes
	datasetBytes   units.Bytes
	inputBytes     units.Bytes
	decodePerBatch time.Duration

	fwd, bwd   time.Duration
	gradBytes  units.Bytes
	paramBytes units.Bytes

	start    time.Duration
	finish   time.Duration
	portBase units.Bytes

	// Abort machinery: when a fault kills the job, every rank stops at the
	// same iteration boundary (cutoff) so no collective is left waiting on
	// a rank that already quit — the simulated analog of NCCL tearing the
	// process group down after a peer dies.
	totalIters int
	maxStarted int // highest iteration any rank has begun (-1 before iter 0)
	cutoff     int
	aborted    bool

	// obsEpochStart tracks the last epoch boundary for the epoch spans;
	// only rank 0 reads or writes it.
	obsEpochStart time.Duration
}

// newEngine builds an engine width ranks wide around comm, a communicator
// on net.
func newEngine(net *fabric.Network, comm *collective.Communicator, width int) *engine {
	e := &engine{
		net: net, comm: comm,
		prefetch: sim.NewResource("loader.prefetch", prefetchDepth*width),
		queues:   make([]*sim.Queue, width),
		h2dReady: make([]*sim.Queue, width),
		feeders:  make([]feeder, width),
		ranks:    make([]ranker, width),
	}
	for i := 0; i < width; i++ {
		names := &rankNames[i]
		e.queues[i] = sim.NewQueue(names.batches)
		e.h2dReady[i] = sim.NewQueue(names.h2d)
		e.feeders[i].inflight = sim.NewResource(names.h2dbuf, len(e.feeders[i].items))
	}
	return e
}

// rankNames holds every rank's process, queue and buffer names, up to the
// collective library's group limit, so no engine formats a name.
var rankNames = func() (t [collective.MaxRanks]struct{ feeder, rank, batches, h2d, h2dbuf string }) {
	for i := range t {
		s := strconv.Itoa(i)
		t[i].feeder, t[i].rank = "feeder"+s, "rank"+s
		t[i].batches, t[i].h2d, t[i].h2dbuf = "batches.gpu"+s, "h2d.gpu"+s, "h2dbuf"+s
	}
	return t
}()

// width is the widest group the engine serves.
func (e *engine) width() int { return cap(e.ranks) }

// stopAt reports whether iteration it is past the abort cutoff.
func (e *engine) stopAt(it int) bool { return e.aborted && it >= e.cutoff }

// scheduleCheckpoints lays out the attempt's checkpoint marks: per epoch,
// ckptPer marks spread over its iters iterations, the last at the epoch
// boundary, each a point every one of n ranks must reach.
//
//perf:hot
func (e *engine) scheduleCheckpoints(totalIters, epochs, iters, ckptPer, n int) {
	if cap(e.ckptAt) < totalIters {
		e.ckptAt = make([]*ckptPoint, totalIters)
	}
	e.ckptAt = e.ckptAt[:totalIters]
	clear(e.ckptAt)
	used := 0
	for ep := 0; ep < epochs; ep++ {
		for k := 0; k < ckptPer; k++ {
			it := ep*iters + (k+1)*iters/ckptPer - 1
			if it < 0 || it >= totalIters {
				continue
			}
			if used == len(e.ckpts) {
				e.ckpts = append(e.ckpts, new(ckptPoint))
			}
			cp := e.ckpts[used]
			used++
			cp.wg.Reset()
			cp.done.Reset()
			cp.wg.Add(n)
			e.ckptAt[it] = cp
		}
	}
}

// spawn resets the engine's plumbing and machines for the attempt and
// starts the machines, in the order the engine has always started its
// processes, so each first step takes the same event slot.
//
//perf:hot
func (e *engine) spawn() {
	env, n := e.env, e.nGPU
	e.done.Reset()
	e.restored.Reset()
	e.ranksDone.Reset()
	e.ranksDone.Add(n)
	e.prefetch.Reset(prefetchDepth * n)
	e.queues, e.h2dReady = e.queues[:n], e.h2dReady[:n]
	for i := 0; i < n; i++ {
		e.queues[i].Reset()
		e.h2dReady[i].Reset()
	}
	e.epochEnds = e.epochEnds[:0]

	if e.resuming {
		r := &e.restorer
		*r = restorer{e: e, specs: r.specs, flows: r.flows[:0]}
		env.Spawn(&r.proc, "restore", r)
	}
	l := &e.loader
	*l = loader{e: e}
	env.Spawn(&l.proc, "loader", l)
	e.feeders = e.feeders[:n]
	for i := range e.feeders {
		f := &e.feeders[i]
		*f = feeder{e: e, rank: i, dev: e.sys.GPUs[i], inflight: f.inflight}
		f.inflight.Reset(len(f.items))
		env.Spawn(&f.proc, rankNames[i].feeder, f)
	}
	e.ranks = e.ranks[:n]
	for i := range e.ranks {
		r := &e.ranks[i]
		*r = ranker{e: e, rank: i, dev: e.sys.GPUs[i]}
		env.Spawn(&r.proc, rankNames[i].rank, r)
	}
	jn := &e.joiner
	*jn = joiner{e: e}
	env.Spawn(&jn.proc, "join", jn)
}

// restorer is the checkpoint restore of a resumed run: before any rank
// computes, rank 0 reads the last checkpoint back from the storage tier
// and every rank loads the restored parameters host→GPU — the price of
// resuming that the R1 checkpoint-interval experiment trades against lost
// work.
type restorer struct {
	proc  sim.Proc
	e     *engine
	stage uint8 // 0: not started, 1: reading, 2: loading to the GPUs
	t0    time.Duration
	io    storage.IOOp
	// specs and flows are the parameter load's legs and flows, kept with
	// the engine.
	specs []fabric.TransferSpec
	flows []*fabric.Flow
}

func (r *restorer) Step() {
	e, sp := r.e, &r.proc
	sys := e.sys
	switch r.stage {
	case 0:
		r.t0 = e.env.Now()
		r.stage = 1
		fallthrough
	case 1:
		armed, err := sys.Store.ArmRead(sp, &r.io, sys.Mem, e.ckptBytes, false)
		if err != nil {
			panic(err)
		}
		if armed {
			return
		}
		specs := r.specs[:0]
		for _, g := range sys.GPUs {
			specs = append(specs, fabric.TransferSpec{Src: sys.Mem, Dst: g.Node, Size: e.ckptBytes})
		}
		r.specs = specs
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
	now := e.env.Now()
	if e.opts.Probe != nil {
		e.opts.Probe(ProbeRestore, now)
	}
	if o := e.opts.Obs; o != nil {
		id := o.Emit(obs.CatTrain, "restore", r.t0, now)
		o.SetAttr(id, "job", int64(e.opts.ObsJob))
	}
	e.restored.Fire(e.env)
	sp.Exit()
}

// loader feeds the per-rank queues one global batch per iteration, bounded
// by prefetch tokens: the first epoch reads from storage, later epochs hit
// the page cache (storage.PageCache), and the CPU workers decode.
type loader struct {
	proc  sim.Proc
	e     *engine
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
	e, sp := l.e, &l.proc
	sys := e.sys
	for {
		switch l.stage {
		case ldRestore:
			l.stage = ldNext
			if e.resuming && e.restored.Arm(sp) {
				return
			}
		case ldNext:
			if l.it >= e.totalIters || e.stopAt(l.it) {
				for _, q := range e.queues {
					q.Close(e.env)
				}
				sp.Exit()
				return
			}
			l.stage = ldCache
			if e.prefetch.Arm(sp, e.nGPU) {
				return
			}
		case ldCache:
			l.stage = ldDecode
			if sys.Cache.CachedBytes(e.cacheKey) < e.datasetBytes {
				l.stage = ldRead
			}
		case ldRead:
			armed, err := sys.Store.ArmRead(sp, &l.io, sys.Mem, e.readPerIter, e.opts.Workload.Data.RandomAccess)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			sys.Cache.Admit(e.cacheKey, e.readPerIter, e.datasetBytes)
			l.stage = ldDecode
		case ldDecode:
			if sys.Host.ArmRunOnCores(sp, &l.cpu, e.workers, e.decodePerBatch/time.Duration(e.workers)) {
				return
			}
			for _, q := range e.queues {
				q.Put(e.env, l.it)
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
	e        *engine
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
	e, sp := f.e, &f.proc
	for {
		if !f.buffered {
			_, ok, armed := e.queues[f.rank].ArmGet(sp)
			if armed {
				return
			}
			if !ok {
				e.h2dReady[f.rank].Close(e.env)
				sp.Exit()
				return
			}
			e.prefetch.Release(e.env, 1)
			if e.stopAt(f.it) {
				f.it++ // past the cutoff: no rank will consume this
				continue
			}
			f.buffered = true
			if f.inflight.Arm(sp, 1) {
				return
			}
		}
		f.buffered = false
		fl, err := e.sys.Net.StartFlow(e.sys.Mem, f.dev.Node, e.inputBytes)
		if err != nil {
			panic(err)
		}
		item := &f.items[f.next]
		f.next = (f.next + 1) % len(f.items)
		item.flow, item.buf = fl, f.inflight
		e.h2dReady[f.rank].Put(e.env, item)
		f.it++
	}
}

// ranker is one training rank's iteration loop: take the prefetched
// input, launch, forward, backward with gradient synchronization, the
// checkpoint barrier, epoch bookkeeping.
type ranker struct {
	proc  sim.Proc
	e     *engine
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
	e, sp := r.e, &r.proc
	env, sys, w := e.env, e.sys, e.opts.Workload
	for {
		switch r.stage {
		case rkRestore:
			r.stage = rkNext
			if e.resuming && e.restored.Arm(sp) {
				return
			}
		case rkNext:
			// Abort cutoff: every rank runs exactly the iterations some
			// rank had begun when Abort fired, then stops — so
			// collectives never wait on a departed peer.
			if r.it >= e.totalIters || e.stopAt(r.it) {
				if !e.aborted {
					r.finish()
					return
				}
				r.stage = rkDrain
				continue
			}
			if r.it > e.maxStarted {
				e.maxStarted = r.it
			}
			r.stage = rkInput
		case rkInput:
			v, ok, armed := e.h2dReady[r.rank].ArmGet(sp)
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
			if r.dev.ArmCompute(sp, &r.hold, e.fwd) {
				return
			}
			if e.strategy == DP {
				r.stage = rkDPBackward
			} else {
				r.b = 0
				r.stage = rkBuckets
			}
		case rkDPBackward:
			if r.dev.ArmCompute(sp, &r.hold, e.bwd) {
				return
			}
			r.stage = rkDPHost
		case rkDPHost:
			if sys.Host.ArmRunOnCore(sp, &r.hold, w.DPPerIterOverhead) {
				return
			}
			r.t0 = env.Now()
			r.stage = rkDPReduced
			if e.comm.ArmReduceToRoot(sp, r.rank, 0, e.gradBytes) {
				return
			}
		case rkDPReduced:
			r.stage = rkSynced
			if e.comm.ArmBroadcast(sp, r.rank, 0, e.paramBytes) {
				return
			}
		case rkBuckets:
			if r.b < e.buckets {
				if r.dev.ArmCompute(sp, &r.hold, e.bwd/time.Duration(e.buckets)) {
					return
				}
				bucket := e.gradBytes / units.Bytes(e.buckets)
				if e.opts.Sharded {
					r.last = e.comm.StartReduceScatter(r.rank, bucket)
				} else {
					r.last = e.comm.StartAllReduce(r.rank, bucket)
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
			if e.opts.Sharded && e.comm.StartAllGather(r.rank, e.paramBytes).Arm(sp) {
				return
			}
		case rkSynced:
			r.dev.MarkBusyFor(env.Now() - r.t0)
			r.stage = rkCkpt
		case rkCkpt:
			// Checkpoint barrier (Figure 9's periodic dips).
			cp := e.ckptAt[r.it]
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
			armed, err := sys.Net.ArmTransfer(sp, &r.xfer, sys.GPUs[0].Node, sys.Mem, e.ckptBytes)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			r.stage = rkCkptWrite
		case rkCkptWrite:
			armed, err := sys.Store.ArmWrite(sp, &r.io, sys.Mem, e.ckptBytes)
			if err != nil {
				panic(err)
			}
			if armed {
				return
			}
			e.ckptAt[r.it].done.Fire(env)
			r.stage = rkCkptDone
		case rkCkptDone:
			if r.rank == 0 {
				now := env.Now()
				if e.opts.Probe != nil {
					e.opts.Probe(ProbeCheckpoint, now)
				}
				if o := e.opts.Obs; o != nil {
					id := o.Emit(obs.CatTrain, "checkpoint", r.ckptT0, now)
					o.SetAttr(id, "job", int64(e.opts.ObsJob))
				}
			}
			r.stage = rkEpoch
		case rkEpoch:
			if r.rank == 0 && (r.it+1)%e.opts.ItersPerEpoch == 0 {
				r.epochEnd()
			}
			r.it++
			r.stage = rkNext
		case rkDrain:
			// Abort wind-down: drain copies the feeder had in flight
			// before it saw the cutoff, releasing their pinned buffers so
			// the feeder can finish discarding and every machine exits.
			v, ok, armed := e.h2dReady[r.rank].ArmGet(sp)
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
	r.e.sys.Net.ReleaseFlow(it.flow)
	it.flow = nil
	it.buf.Release(r.e.env, 1)
}

// epochEnd records rank 0's epoch boundary.
func (r *ranker) epochEnd() {
	e := r.e
	now := e.env.Now()
	e.epochEnds = append(e.epochEnds, now)
	if e.opts.Probe != nil {
		e.opts.Probe(ProbeEpoch, now)
	}
	if o := e.opts.Obs; o != nil {
		id := o.Emit(obs.CatTrain, "epoch", e.obsEpochStart, now)
		o.SetAttr(id, "job", int64(e.opts.ObsJob))
		o.SetAttr(id, "epoch", int64(len(e.epochEnds)+e.opts.ResumeEpochs))
		e.obsEpochStart = now
	}
}

// finish reports the rank to join and ends its machine.
func (r *ranker) finish() {
	r.e.ranksDone.Done(r.e.env)
	r.proc.Exit()
}

// joiner waits for every rank, then releases the job's resources and
// fires its Done signal.
type joiner struct {
	proc sim.Proc
	e    *engine
}

func (jn *joiner) Step() {
	e := jn.e
	if e.ranksDone.Arm(&jn.proc) {
		return
	}
	now := e.env.Now()
	e.finish = now
	e.tel.smp.Stop()
	e.sys.Host.FreeMem(e.staging)
	freeGPUMem(e.sys, e.need)
	final := ProbeDone
	if e.aborted {
		final = ProbeAbort
	}
	if e.opts.Probe != nil {
		e.opts.Probe(final, now)
	}
	if o := e.opts.Obs; o != nil {
		id := o.Instant(obs.CatTrain, final)
		o.SetAttr(id, "job", int64(e.opts.ObsJob))
	}
	e.done.Fire(e.env)
	jn.proc.Exit()
}
