// Package orchestrator is the fleet-level scheduler the paper's pitch
// implies but never builds: it drives a *stream* of deep-learning training
// jobs through a composable multi-host testbed, attaching and detaching
// Falcon chassis GPUs between hosts on demand (§III-B-3 advanced mode)
// instead of composing one static configuration per run.
//
// The scheduler is purely event-driven inside the deterministic simulation:
// job arrivals, placement decisions, recomposition delays, launches and
// completions are all sim-time events, so a given (fleet, job stream,
// policy) triple always produces byte-identical telemetry — the property
// the fleet scenario sweep pins.
//
// Placement is pluggable (Policy): first-fit, drawer-locality-aware,
// bandwidth-aware, and the static per-host partition that serves as the
// paper-world baseline. Jobs are served strictly FIFO — the head of the
// queue blocks until the policy can place it — which keeps the comparison
// between policies about *placement*, not queue discipline.
//
// Fleets scale past one rack: cluster.ComposeFleet can build pods of
// chassis behind a spine/leaf fabric tier with oversubscribed inter-pod
// links, and the scheduler is hierarchy-aware end to end — policies score
// placement distance in tiers (same chassis < same pod < cross-pod),
// recomposition crosses chassis over each chassis's fabric uplink port,
// and the fault engine's blast radii extend to whole pods and spine
// links. A 1024-GPU, 500-job scenario (8 pods × 8 chassis × 16 GPUs)
// schedules in under a second of wall clock (orchestrator/pod-schedule
// in internal/perfbench).
//
// Accounting is fault-honest: GPUSeconds credits the delivered
// (checkpointed) work of every attempt, not just the final one, and
// Utilization divides by the live-capacity integral — capacity lost to a
// permanent failure stops counting as idle. Fault-free runs reduce to
// the exact legacy formulas, bit for bit.
package orchestrator

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// JobSpec is one training job in the arrival stream.
type JobSpec struct {
	// ID is assigned by Run in stream order; caller-set values are
	// overwritten.
	ID int
	// Arrival is the sim time the job enters the queue.
	Arrival time.Duration
	// Tenant is the index of the submitting host (the job's "home"
	// machine). Dynamic policies ignore it; the static baseline may only
	// run the job on this host's fixed GPU share.
	Tenant int
	// GPUs is the device demand (≥ 2: the collective layer needs a group).
	GPUs int

	Workload      string // Table II benchmark name
	Strategy      train.Strategy
	Precision     gpu.Precision
	Sharded       bool
	BatchPerGPU   int // 0 = workload default, clamped to fit
	Epochs        int
	ItersPerEpoch int
	// CheckpointsPerEpoch overrides the workload's checkpoint write
	// cadence (0 keeps it). Restart granularity is the epoch boundary,
	// so extra mid-epoch writes are pure overhead — the recovery trade
	// is swept by splitting the same work into more epochs (R1), not by
	// raising this.
	CheckpointsPerEpoch int
}

// Sanitize maps an arbitrary spec onto the nearest valid one for a fleet
// of totalGPUs devices of the given part across hosts machines, mirroring
// scengen.Sanitize: counts clamped, contradictory knobs resolved, batch
// fitted to device memory (with the paper's relief valves — sharding, then
// mixed precision — when nothing fits).
func (j JobSpec) Sanitize(totalGPUs, hosts int, spec gpu.Spec) JobSpec {
	if j.Arrival < 0 {
		j.Arrival = 0
	}
	j.GPUs = clamp(j.GPUs, 2, totalGPUs)
	j.Tenant = clamp(j.Tenant, 0, hosts-1)
	if _, err := dlmodel.BenchmarkByName(j.Workload); err != nil {
		j.Workload = "ResNet-50"
	}
	if j.Strategy != train.DP {
		j.Strategy = train.DDP
	}
	if j.Precision != gpu.FP16 {
		j.Precision = gpu.FP32
	}
	if j.Strategy != train.DDP {
		j.Sharded = false
	}
	j.Epochs = clamp(j.Epochs, 1, 8)
	j.ItersPerEpoch = clamp(j.ItersPerEpoch, 1, 50)
	j.CheckpointsPerEpoch = clamp(j.CheckpointsPerEpoch, 0, 8)

	w, _ := dlmodel.BenchmarkByName(j.Workload)
	maxB := j.maxBatch(w, spec)
	if maxB < 1 {
		if j.Strategy == train.DDP {
			j.Sharded = true
			maxB = j.maxBatch(w, spec)
		}
		if maxB < 1 {
			j.Precision = gpu.FP16
			maxB = j.maxBatch(w, spec)
		}
		if maxB < 1 {
			maxB = 1
		}
	}
	if j.BatchPerGPU == 0 {
		j.BatchPerGPU = w.BatchPerGPU
	}
	j.BatchPerGPU = clamp(j.BatchPerGPU, 1, maxB)
	return j
}

func (j JobSpec) maxBatch(w dlmodel.Workload, spec gpu.Spec) int {
	shards := 1
	if j.Sharded {
		shards = j.GPUs
	}
	return w.MaxBatch(spec, j.Precision, shards)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// EventKind tags the orchestrator's lifecycle probe points.
type EventKind string

// Lifecycle events, in per-job order. A fault-free job moves arrive →
// place → launch → finish; a fault may interpose kill (back to the queue,
// resuming from its last checkpoint on the next place) or, once the retry
// budget is spent, fail.
const (
	// EventArrive: the job entered the queue.
	EventArrive EventKind = "arrive"
	// EventPlace: the policy picked a host and GPU slots; any
	// recomposition (attach/reassign) happened at this instant.
	EventPlace EventKind = "place"
	// EventLaunch: the training processes started (after the
	// recomposition delay, if any).
	EventLaunch EventKind = "launch"
	// EventFinish: all ranks completed and the GPUs were released.
	EventFinish EventKind = "finish"
	// EventKill: a fault killed the job's attempt; its GPUs were released
	// and the job re-entered the queue (or failed).
	EventKill EventKind = "kill"
	// EventFail: the job exhausted its retry budget and was abandoned.
	EventFail EventKind = "fail"
)

// Fault events, interleaved with the lifecycle stream so one probe sees
// the whole causal order (a slot goes down, then its holder is killed).
const (
	// EventSlotDown/Up: a chassis GPU slot left/rejoined the schedulable
	// pool (device failure, drawer unplug, or the repair).
	EventSlotDown EventKind = "slot-down"
	EventSlotUp   EventKind = "slot-up"
	// EventHostDown/Up: a host machine crashed/recovered.
	EventHostDown EventKind = "host-down"
	EventHostUp   EventKind = "host-up"
	// EventPodDown/Up: an entire pod lost power/recovered — every chassis,
	// slot, and host under it went with it. Emitted before the per-slot and
	// per-host cascade, so a probe sees cause before effect.
	EventPodDown EventKind = "pod-down"
	EventPodUp   EventKind = "pod-up"
)

// Event is one orchestrator lifecycle observation, the probe surface
// internal/invariant hangs the fleet checks on (no double-assignment,
// attach conservation, queue-lifecycle monotonicity, no placement on a
// down slot).
type Event struct {
	Kind  EventKind
	At    time.Duration
	Job   int // -1 on fault events
	Host  int // -1 on arrive
	Slots []falcon.SlotRef
	// Indices are the global fleet slot indices matching Slots. SlotRefs
	// repeat across chassis in a pod fleet, so probes key per-slot state on
	// these, not on the refs.
	Indices []int
	Moves   int // place only: control-plane moves this placement needed
	Pod     int // pod-down/up only: the pod that lost/regained power
}

// DefaultAttachLatency is the per-device recomposition cost: the
// hot-plug/rescan window between the control-plane attach and the device
// being usable by the host. Dynamic recomposition pays it; static
// partitioning never does — the trade the S1 experiment measures.
const DefaultAttachLatency = 1500 * time.Millisecond

// DefaultMaxRetries is the per-job reschedule budget after fault kills.
const DefaultMaxRetries = 3

// Options tunes a fleet run.
type Options struct {
	// Policy places jobs; nil means FirstFit.
	Policy Policy
	// AttachLatency is the sim-time cost per device move (0 = default;
	// negative = free recomposition).
	AttachLatency time.Duration
	// Probe, when non-nil, observes every lifecycle event. It must not
	// mutate scheduler state; internal/invariant attaches here.
	Probe func(Event)
	// Faults, when non-nil, is armed against the fleet: link degradation,
	// GPU/drawer/host failures and their repairs play out in sim time,
	// and the scheduler recovers — killed jobs resume from their last
	// epoch-boundary checkpoint on surviving GPUs, failed devices are
	// blacklisted until repaired. The plan is sanitized against the
	// fleet's real shape before arming.
	Faults *faults.Plan
	// MaxRetries caps fault-kill reschedules per job (0 = default 3;
	// negative = no retries). A job over budget is marked Failed.
	MaxRetries int
	// Obs, when non-nil, traces the run: per-job wait/compose/run spans
	// with kill/fail/recompose instants on the orchestrator track, queue
	// and capacity gauges sampled on the collector's interval, and the
	// training engine's own spans threaded through per launch. The
	// collector must already be attached to the fleet's environment. Like
	// Probe it must not change outcomes.
	Obs *obs.Collector
}

// jobState tracks one job through the queue.
type jobState struct {
	spec    JobSpec
	host    int
	slots   []*cluster.FleetSlot
	refs    []falcon.SlotRef
	indices []int // global slot indices matching refs
	moves   int   // cumulative across attempts
	job     *train.Job
	res     *train.Result

	arrived, placed, launched, finished time.Duration
	done                                bool

	// Fault recovery state.
	killed     bool   // current attempt is being torn down
	cause      string // last failure cause
	retries    int    // attempts killed by faults so far
	failed     bool   // retry budget exhausted; job abandoned
	epochsDone int    // checkpointed epochs carried across attempts
	lostSec    float64
	// deliveredSec is GPU time that produced checkpointed (kept) progress,
	// summed over every attempt — killed attempts contribute up to their
	// last epoch boundary, the final attempt contributes in full. The old
	// accounting only counted the final attempt, understating delivered
	// work (and goodput) for every retried job.
	deliveredSec float64

	// Open trace spans for the job's current lifecycle phase (0 = none);
	// wait reopens on every requeue, compose and run restart per attempt.
	waitSpan    obs.SpanID
	composeSpan obs.SpanID
	runSpan     obs.SpanID
}

// scheduler is the event-driven core. Everything runs inside sim callbacks
// and processes, one at a time, so no locking is needed and every decision
// is deterministic.
type scheduler struct {
	fleet *cluster.FleetSystem
	opts  Options
	jobs  []*jobState
	queue []*jobState // arrived, not yet placed; strict FIFO

	slotJob  []int // per slot: owning job ID, -1 free
	hostGPUs []int // assigned GPUs per host
	hostJobs []int // assigned jobs per host

	recomps int
	err     error
	// launcher starts every attempt's training job and recycles the
	// engines of finished attempts (finish and reschedule release them).
	// systems holds the job views the launcher handed back and watches
	// the completion watchers that have exited, for later attempts.
	launcher train.Launcher
	systems  []*cluster.System
	watches  []*watch

	// Fault state (see faults.go). A slot is schedulable only while its
	// device, drawer, and pod are healthy; a host only while neither it nor
	// its pod is down.
	slotFaulty []bool
	drawerDown []bool
	podDown    []bool
	hostDown   []bool
	maxRetries int
	injector   *faults.Injector
	track      *obs.Track
	// healthyCaps holds every link's capacity before any fault, by LinkID.
	healthyCaps [][2]units.BytesPerSec
	kills       int

	// Live-capacity integral: ∫ live GPUs dt up to capLastT, advanced by
	// capAccrue before any availability flag flips. liveSlots counts the
	// slots not Down, kept by syncSlot. Utilization divides by the
	// integral instead of fleet GPUs × makespan once capacity ever dipped,
	// so a permanently failed device stops dragging the ratio below what
	// the surviving fleet actually delivered.
	capGPUSec      float64
	capLastT       time.Duration
	capIntAtFinish float64 // integral snapshotted at the last job finish
	liveSlots      int
	capEverDown    bool

	// Fragmentation accounting: free-GPU-seconds accumulated while at
	// least one job waits (capacity exists but the policy cannot use it).
	lastT      time.Duration
	fragGPUSec float64

	// Live placement state: the View handed to every Place call, built once
	// by buildView and kept current by syncSlot and syncHost wherever a
	// slot's owner or health, or a host's availability, changes, together
	// with its free-slot index. It is the scheduler's only record of slot
	// attachment: place and slotLost write Slots[i].Host in place. Then
	// come the policy scoring buffers and the epoch-stamped duplicate
	// check in checkPlacement (seenGen bumps instead of clearing; a slot is
	// "seen" when its stamp matches the current generation).
	view     View
	pscratch policyScratch
	seenSlot []uint64
	seenGen  uint64

	// Observability (nil obs = off; every emit below is nil-checked so
	// the disabled hot path costs one branch and zero allocations).
	obs           *obs.Collector
	obsPlacements obs.CounterID
	obsRetries    obs.CounterID
	obsKills      obs.CounterID
	settled       int // done or failed jobs; the last one stops the sampler
}

// Run executes the job stream on the fleet to completion and returns the
// fleet telemetry. The fleet must be freshly composed (its simulation not
// yet run); Run drives the environment itself. Specs are sanitized and
// re-IDed in stream order. An error is returned if the simulation fails,
// a job cannot start (configuration error), or jobs remain unplaceable
// under the policy once the stream drains.
func Run(f *cluster.FleetSystem, specs []JobSpec, opts Options) (*FleetResult, error) {
	s, err := newScheduler(f, specs, opts)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// newScheduler sets a run up without starting it: options defaulted, the
// live View built, arrivals scheduled, faults armed and observability
// wired.
func newScheduler(f *cluster.FleetSystem, specs []JobSpec, opts Options) (*scheduler, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("orchestrator: empty job stream")
	}
	if opts.Policy == nil {
		opts.Policy = FirstFit{}
	}
	switch {
	case opts.AttachLatency == 0:
		opts.AttachLatency = DefaultAttachLatency
	case opts.AttachLatency < 0:
		opts.AttachLatency = 0
	}

	maxRetries := opts.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	s := &scheduler{
		fleet:      f,
		opts:       opts,
		slotJob:    make([]int, len(f.Slots)),
		hostGPUs:   make([]int, len(f.Hosts)),
		hostJobs:   make([]int, len(f.Hosts)),
		slotFaulty: make([]bool, len(f.Slots)),
		drawerDown: make([]bool, f.NumDrawers()),
		podDown:    make([]bool, f.NumPods()),
		hostDown:   make([]bool, len(f.Hosts)),
		maxRetries: maxRetries,
		track:      obs.NewTrack("faults"),
		liveSlots:  len(f.Slots),
	}
	for i := range f.Slots {
		s.slotJob[i] = -1
	}
	s.buildView()
	for i := range specs {
		spec := specs[i].Sanitize(len(f.Slots), len(f.Hosts), f.GPUSpec)
		spec.ID = i
		js := &jobState{spec: spec, host: -1}
		s.jobs = append(s.jobs, js)
		f.Env.Schedule(spec.Arrival, func() { s.arrive(js) })
	}
	if opts.Faults != nil && !opts.Faults.Empty() {
		s.armFaults(*opts.Faults)
	}
	if opts.Obs != nil {
		s.obsSetup(opts.Obs)
	}
	return s, nil
}

// run drives the environment to completion and collects the result.
func (s *scheduler) run() (*FleetResult, error) {
	f := s.fleet
	if err := f.Env.Run(); err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	if s.err != nil {
		return nil, s.err
	}
	var stuck []string
	for _, js := range s.jobs {
		if !js.done && !js.failed {
			stuck = append(stuck, strconv.Itoa(js.spec.ID))
		}
	}
	if len(stuck) > 0 {
		return nil, fmt.Errorf("orchestrator: policy %s left job(s) %s unplaceable on %d hosts × %d GPUs",
			s.opts.Policy.Name(), strings.Join(stuck, ","), len(f.Hosts), len(f.Slots))
	}
	return s.result(), nil
}

func (s *scheduler) now() time.Duration { return s.fleet.Env.Now() }

// obsSetup wires the collector in: scheduler counters and gauges join the
// registry (the fabric and fault layers register theirs at their own
// seams), the fault injector learns to emit blast-radius spans, and the
// sampler starts. Runs once, before the environment does.
func (s *scheduler) obsSetup(c *obs.Collector) {
	s.obs = c
	reg := c.Registry()
	s.obsPlacements = reg.Counter("orchestrator.placements")
	s.obsRetries = reg.Counter("orchestrator.retries")
	s.obsKills = reg.Counter("orchestrator.kills")
	reg.Gauge("orchestrator.queue_depth", func() float64 { return float64(len(s.queue)) })
	reg.Gauge("orchestrator.live_gpus", func() float64 { return float64(s.liveSlots) })
	reg.Gauge("orchestrator.stranded_gpus", func() float64 { return float64(s.view.idx.free) })
	if s.injector != nil {
		s.injector.SetObs(c)
	}
	c.StartSampling()
}

// settle records one job reaching a terminal state (done or failed); the
// last one stops the metric sampler, so the samples end with the jobs.
func (s *scheduler) settle() {
	s.settled++
	if s.obs != nil && s.settled == len(s.jobs) {
		s.obs.StopSampling()
	}
}

func (s *scheduler) probe(ev Event) {
	if s.opts.Probe != nil {
		s.opts.Probe(ev)
	}
}

// account accrues fragmentation time up to now: while any job waits, every
// free schedulable GPU is stranded capacity (a failed device is missing,
// not stranded).
//
//perf:hot
func (s *scheduler) account(now time.Duration) {
	if len(s.queue) > 0 && now > s.lastT {
		// float64(…) rounds the product, so no architecture fuses it (FMA).
		s.fragGPUSec += float64(float64(s.view.idx.free) * (now - s.lastT).Seconds())
	}
	s.lastT = now
}

func (s *scheduler) arrive(js *jobState) {
	if s.err != nil {
		return
	}
	now := s.now()
	s.account(now)
	js.arrived = now
	s.queue = append(s.queue, js)
	s.probe(Event{Kind: EventArrive, At: now, Job: js.spec.ID, Host: -1})
	if s.obs != nil {
		js.waitSpan = s.obs.Begin(obs.CatOrchestrator, "wait")
		s.obs.SetAttr(js.waitSpan, "job", int64(js.spec.ID))
	}
	s.trySchedule()
}

// trySchedule places queue heads for as long as the policy can.
//
//perf:hot
func (s *scheduler) trySchedule() {
	for s.err == nil && len(s.queue) > 0 {
		js := s.queue[0]
		host, picks, ok := s.opts.Policy.Place(s.view, Request{
			Job: js.spec.ID, Tenant: js.spec.Tenant, GPUs: js.spec.GPUs,
		})
		if !ok {
			return
		}
		if err := s.checkPlacement(js, host, picks); err != nil {
			s.err = err
			return
		}
		// Pop by copy-down so the queue's backing array keeps its capacity.
		m := copy(s.queue, s.queue[1:])
		s.queue[m] = nil
		s.queue = s.queue[:m]
		s.place(js, host, picks)
	}
}

// checkPlacement validates a policy's pick before any state changes: the
// scheduler trusts no Policy implementation with its invariants.
//
//perf:hot
func (s *scheduler) checkPlacement(js *jobState, host int, picks []int) error {
	if host < 0 || host >= len(s.fleet.Hosts) {
		return fmt.Errorf("orchestrator: policy %s placed job %d on host %d of %d",
			s.opts.Policy.Name(), js.spec.ID, host, len(s.fleet.Hosts))
	}
	if !s.hostAvailable(host) {
		return fmt.Errorf("orchestrator: policy %s placed job %d on crashed host %d",
			s.opts.Policy.Name(), js.spec.ID, host)
	}
	if len(picks) != js.spec.GPUs {
		return fmt.Errorf("orchestrator: policy %s picked %d slots for job %d needing %d",
			s.opts.Policy.Name(), len(picks), js.spec.ID, js.spec.GPUs)
	}
	if len(s.seenSlot) < len(s.fleet.Slots) {
		s.seenSlot = make([]uint64, len(s.fleet.Slots))
	}
	s.seenGen++
	for _, i := range picks {
		if i < 0 || i >= len(s.fleet.Slots) || s.seenSlot[i] == s.seenGen {
			return fmt.Errorf("orchestrator: policy %s picked invalid/duplicate slot %d for job %d",
				s.opts.Policy.Name(), i, js.spec.ID)
		}
		s.seenSlot[i] = s.seenGen
		if s.slotJob[i] != -1 {
			return fmt.Errorf("orchestrator: policy %s double-assigned slot %d (held by job %d) to job %d",
				s.opts.Policy.Name(), i, s.slotJob[i], js.spec.ID)
		}
		if !s.slotAvailable(i) {
			return fmt.Errorf("orchestrator: policy %s picked failed slot %d for job %d",
				s.opts.Policy.Name(), i, js.spec.ID)
		}
	}
	return nil
}

// place claims the slots, performs the control-plane recomposition, and
// schedules the launch after the attach delay.
func (s *scheduler) place(js *jobState, host int, picks []int) {
	now := s.now()
	s.account(now)
	js.placed = now
	js.host = host
	h := s.fleet.Hosts[host]
	moves := 0 // this placement only; js.moves accumulates across attempts
	// Sized once: the event probes keep refs and indices, so each
	// placement gets its own; slots is the scheduler's alone.
	if cap(js.slots) < len(picks) {
		js.slots = make([]*cluster.FleetSlot, 0, len(picks))
	}
	js.refs = make([]falcon.SlotRef, 0, len(picks))
	js.indices = make([]int, 0, len(picks))
	for _, i := range picks {
		slot := s.fleet.Slots[i]
		s.slotJob[i] = js.spec.ID
		js.slots = append(js.slots, slot)
		js.refs = append(js.refs, slot.Ref)
		js.indices = append(js.indices, i)
		sv := &s.view.Slots[i]
		if sv.Host != host {
			// Recomposition: advanced mode re-allocates on the fly; a
			// detached device attaches, an attached one reassigns in a single
			// step. The fleet routes the op through the slot's own chassis,
			// over its local host port or the pod fabric port for a
			// cross-chassis composition.
			var err error
			if sv.Host == -1 {
				err = s.fleet.AttachSlot(slot, h)
			} else {
				err = s.fleet.ReassignSlot(slot, h)
			}
			if err != nil {
				s.err = fmt.Errorf("orchestrator: recomposing %v for job %d: %w", slot.Ref, js.spec.ID, err)
				return
			}
			sv.Host = host
			moves++
			if s.obs != nil {
				ev := s.obs.Instant(obs.CatOrchestrator, "recompose")
				s.obs.SetAttr(ev, "job", int64(js.spec.ID))
				s.obs.SetAttr(ev, "slot", int64(i))
				s.obs.SetAttr(ev, "host", int64(host))
			}
		}
		s.syncSlot(i)
	}
	js.moves += moves
	s.recomps += moves
	s.hostGPUs[host] += js.spec.GPUs
	s.hostJobs[host]++
	s.probe(Event{Kind: EventPlace, At: now, Job: js.spec.ID, Host: host, Slots: js.refs, Indices: js.indices, Moves: moves})
	if s.obs != nil {
		s.obs.Inc(s.obsPlacements)
		s.obs.End(js.waitSpan)
		js.waitSpan = 0
		js.composeSpan = s.obs.Begin(obs.CatOrchestrator, "compose")
		s.obs.SetAttr(js.composeSpan, "job", int64(js.spec.ID))
		s.obs.SetAttr(js.composeSpan, "host", int64(host))
		s.obs.SetAttr(js.composeSpan, "moves", int64(moves))
	}

	if delay := s.opts.AttachLatency * time.Duration(moves); delay > 0 {
		s.fleet.Env.After(delay, func() { s.launch(js) })
	} else {
		s.launch(js)
	}
}

// launch starts the training processes on the job's system view. A job
// killed during the hot-plug window (its host crashed, a picked device
// died) reschedules here instead of starting.
func (s *scheduler) launch(js *jobState) {
	if s.err != nil {
		return
	}
	now := s.now()
	s.account(now)
	if js.killed {
		s.reschedule(js, now)
		return
	}
	js.launched = now
	w, err := dlmodel.BenchmarkByName(js.spec.Workload)
	if err != nil {
		s.err = fmt.Errorf("orchestrator: job %d: %w", js.spec.ID, err)
		return
	}
	remaining := js.spec.Epochs - js.epochsDone
	if remaining < 1 {
		remaining = 1
	}
	name := "fleet-j" + strconv.Itoa(js.spec.ID) + "-h" + strconv.Itoa(js.host+1)
	sys := s.fleet.JobSystem(pop(&s.systems), s.fleet.Hosts[js.host], js.slots, name)
	job, err := s.launcher.Start(sys, train.Options{
		Workload:            w,
		Precision:           js.spec.Precision,
		Strategy:            js.spec.Strategy,
		Sharded:             js.spec.Sharded,
		BatchPerGPU:         js.spec.BatchPerGPU,
		Epochs:              remaining,
		ItersPerEpoch:       js.spec.ItersPerEpoch,
		CheckpointsPerEpoch: js.spec.CheckpointsPerEpoch,
		ResumeEpochs:        js.epochsDone,
		Obs:                 s.obs,
		ObsJob:              js.spec.ID,
	})
	if err != nil {
		s.err = fmt.Errorf("orchestrator: starting job %d (%s ×%d on host%d): %w",
			js.spec.ID, js.spec.Workload, js.spec.GPUs, js.host+1, err)
		return
	}
	js.job = job
	s.probe(Event{Kind: EventLaunch, At: now, Job: js.spec.ID, Host: js.host, Slots: js.refs, Indices: js.indices})
	if s.obs != nil {
		s.obs.End(js.composeSpan)
		js.composeSpan = 0
		js.runSpan = s.obs.Begin(obs.CatOrchestrator, "run")
		s.obs.SetAttr(js.runSpan, "job", int64(js.spec.ID))
		s.obs.SetAttr(js.runSpan, "host", int64(js.host))
		s.obs.SetAttr(js.runSpan, "attempt", int64(js.retries))
	}
	wt := pop(&s.watches)
	if wt == nil {
		wt = new(watch)
	}
	wt.s, wt.js, wt.job = s, js, job
	s.fleet.Env.Spawn(&wt.proc, "fleet.watch.j"+strconv.Itoa(js.spec.ID)+"r"+strconv.Itoa(js.retries), wt)
}

// watch is one attempt's completion watcher: a tracked stepper that waits
// for the training job's Done signal, then finishes the attempt. Each
// attempt gets its own, because finishing may launch the next attempt
// before this one exits; an exited watcher waits on the scheduler's free
// list for a later attempt.
type watch struct {
	proc sim.Proc
	s    *scheduler
	js   *jobState
	job  *train.Job
}

//perf:hot
func (w *watch) Step() {
	if w.job.Done().Arm(&w.proc) {
		return
	}
	s := w.s
	s.finish(w.js, s.fleet.Env.Now())
	w.proc.Exit()
	w.js, w.job = nil, nil
	s.watches = append(s.watches, w)
}

// pop removes and returns the last element of a free list, or nil when
// the list is empty.
//
//perf:hot
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

// release hands js's finished attempt back to the launcher and keeps the
// job view it returns for a later attempt.
//
//perf:hot
func (s *scheduler) release(js *jobState) {
	if sys := s.launcher.Release(js.job); sys != nil {
		s.systems = append(s.systems, sys)
	}
	js.job = nil
}

// finish collects the result, releases the GPUs (attachment is left in
// place — the next placement reuses or reassigns it) and reschedules. For
// an attempt a fault killed, it routes to the recovery path instead once
// the wind-down has drained.
func (s *scheduler) finish(js *jobState, now time.Duration) {
	s.account(now)
	if js.killed {
		s.reschedule(js, now)
		return
	}
	js.finished = now
	res, err := js.job.Collect()
	if err != nil {
		s.err = fmt.Errorf("orchestrator: collecting job %d: %w", js.spec.ID, err)
		return
	}
	js.res = res
	s.release(js)
	// float64(…) rounds the product, so no architecture fuses it (FMA).
	js.deliveredSec += float64(float64(js.spec.GPUs) * (now - js.launched).Seconds())
	for _, slot := range js.slots {
		s.slotJob[slot.Index] = -1
		s.syncSlot(slot.Index)
	}
	s.hostGPUs[js.host] -= js.spec.GPUs
	s.hostJobs[js.host]--
	js.done = true
	if s.obs != nil {
		s.obs.End(js.runSpan)
		js.runSpan = 0
	}
	s.settle()
	// Snapshot the capacity integral at every finish; the last one wins and
	// is exactly ∫ live GPUs dt over [0, makespan].
	s.capAccrue(now)
	s.capIntAtFinish = s.capGPUSec
	s.probe(Event{Kind: EventFinish, At: now, Job: js.spec.ID, Host: js.host, Slots: js.refs, Indices: js.indices})
	s.trySchedule()
}

// buildView builds the live View once, before the run: the hierarchy
// mapping, the static per-slot and per-host fields, every slot's owner
// as read from the chassis control plane (also its static Config), every
// slot's and host's initial state, and the free-slot index. From then on
// syncSlot and syncHost keep it current, so handing it to a policy costs
// nothing.
func (s *scheduler) buildView() {
	f := s.fleet
	cpp := f.Opts.ChassisPerPod
	if cpp < 1 {
		cpp = 1
	}
	hostChassis := make([]int, len(f.Hosts))
	hostPod := make([]int, len(f.Hosts))
	for h, host := range f.Hosts {
		hostChassis[h] = host.ChassisIdx
		hostPod[h] = host.Pod
	}
	s.view = View{
		Hosts:             len(f.Hosts),
		Drawers:           f.NumDrawers(),
		DrawersPerChassis: falcon.NumDrawers,
		ChassisPerPod:     cpp,
		HostActiveGPUs:    s.hostGPUs,
		HostActiveJobs:    s.hostJobs,
		HostUp:            make([]bool, len(f.Hosts)),
		HostChassis:       hostChassis,
		HostPod:           hostPod,
		Slots:             make([]SlotView, len(f.Slots)),
		scratch:           &s.pscratch,
	}
	for h := range f.Hosts {
		s.syncHost(h)
	}
	for i, slot := range f.Slots {
		owner := f.OwnerHost(slot)
		s.view.Slots[i] = SlotView{
			Index:   i,
			Drawer:  slot.Drawer,
			Chassis: slot.ChassisIdx,
			Pod:     slot.Pod,
			Host:    owner,
			Config:  owner,
		}
	}
	s.view.idx = newSlotIndex(s.view.Slots, s.view.Drawers)
	for i := range f.Slots {
		s.syncSlot(i)
	}
}

// syncSlot refreshes slot i's Free and Down flags, the free-slot index
// and the live-slot count from the scheduler's state. It must run after
// every change to slotJob[i] or a fault flag covering the slot, before
// anything reads the View, the free count or liveSlots.
//
//perf:hot
func (s *scheduler) syncSlot(i int) {
	sv := &s.view.Slots[i]
	down := !s.slotAvailable(i)
	free := s.slotJob[i] == -1 && !down
	if free != sv.Free {
		delta := 1
		if !free {
			delta = -1
		}
		s.view.idx.free += delta
		s.view.idx.drawerFree[sv.Drawer] += delta
	}
	if down != sv.Down {
		if down {
			s.liveSlots--
			s.capEverDown = true
		} else {
			s.liveSlots++
		}
	}
	sv.Free, sv.Down = free, down
}

// syncHost refreshes host h's entry in the View after its own or its
// pod's availability changed.
func (s *scheduler) syncHost(h int) { s.view.HostUp[h] = s.hostAvailable(h) }

func (s *scheduler) result() *FleetResult {
	r := &FleetResult{
		Policy: s.opts.Policy.Name(),
		Hosts:  len(s.fleet.Hosts),
		GPUs:   len(s.fleet.Slots),

		Recompositions:          s.recomps,
		FragmentationGPUSeconds: s.fragGPUSec,
		Kills:                   s.kills,
		Track:                   s.track,
	}
	if s.fleet.Opts.Hierarchical() {
		r.Pods = s.fleet.NumPods()
		r.Chassis = s.fleet.NumChassis()
		r.Oversubscription = s.fleet.Opts.Oversubscription
		if r.Oversubscription == 0 {
			r.Oversubscription = 1
		}
	}
	if s.injector != nil {
		for _, rec := range s.injector.Records() {
			if !rec.Up {
				r.Faults++
			}
		}
		r.FaultLedger = s.injector.AppliedLedger()
	}
	completed := 0
	r.Jobs = make([]JobResult, 0, len(s.jobs))
	for _, js := range s.jobs {
		jr := JobResult{
			ID: js.spec.ID, Workload: js.spec.Workload,
			GPUs: js.spec.GPUs, Tenant: js.spec.Tenant, Host: js.host, Moves: js.moves,
			Slots:   js.refs,
			Retries: js.retries, EpochsDone: js.epochsDone,
			GPUSeconds: js.deliveredSec, LostGPUSeconds: js.lostSec,
			Failed: js.failed, FailureCause: js.cause,
			Train: js.res,
		}
		r.LostGPUSeconds += js.lostSec
		if js.failed {
			// An abandoned job has no final attempt: only its arrival, the
			// lost work above, and any checkpointed-but-wasted delivered
			// time are meaningful. The fleet aggregate counts none of the
			// latter — an abandoned checkpoint delivers nothing.
			jr.Arrival = js.arrived
			r.FailedJobs++
			r.Jobs = append(r.Jobs, jr)
			continue
		}
		completed++
		jr.Arrival, jr.Placed, jr.Launched, jr.Finished = js.arrived, js.placed, js.launched, js.finished
		jr.Wait, jr.Runtime = js.launched-js.arrived, js.finished-js.launched
		r.Jobs = append(r.Jobs, jr)
		if jr.Finished > r.Makespan {
			r.Makespan = jr.Finished
		}
		r.TotalWait += jr.Wait
		if jr.Wait > r.MaxWait {
			r.MaxWait = jr.Wait
		}
		// Delivered GPU time over every attempt, not just the final one: a
		// retried job's checkpointed epochs were real work its final-attempt
		// runtime never re-ran.
		r.GPUSeconds += jr.GPUSeconds
	}
	if completed > 0 {
		r.MeanWait = r.TotalWait / time.Duration(completed)
	}
	if r.Makespan > 0 {
		denom := float64(r.GPUs) * r.Makespan.Seconds()
		if s.capEverDown && s.capIntAtFinish > 0 {
			// Capacity dipped during the run: divide by the GPU time that
			// actually existed, so a permanent device failure shrinks the
			// denominator instead of reading as scheduler idleness.
			denom = s.capIntAtFinish
		}
		r.Utilization = r.GPUSeconds / denom
		r.Goodput = r.GPUSeconds / r.Makespan.Seconds()
	}
	return r
}
