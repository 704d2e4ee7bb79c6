package fabric

import (
	"fmt"
	"math"
	"time"

	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/units"
)

// Network is a fabric graph plus an active set of fluid flows. All mutation
// must happen inside the simulation (from processes or scheduled callbacks);
// the engine's strict handoff makes that race-free without locks.
type Network struct {
	env   *sim.Env
	nodes []*Node
	links []*Link
	// adj lists each node's outgoing link directions and degree counts its
	// incident links in either direction, both indexed by NodeID.
	adj    [][]dirLink
	degree []int32

	// EndpointOverhead is added once per transfer to model DMA/driver
	// setup at the endpoints; it dominates small-message p2p latency.
	EndpointOverhead time.Duration

	// flows is the active set in deterministic insertion order (removal
	// swaps the tail in; each flow tracks its index).
	flows      []*Flow
	lastUpdate sim.Time
	epoch      uint64
	routeCache map[[2]NodeID][]dirLink
	// routes is the dense route cache for small graphs (see Route); it
	// replaces a map hash per flow start with one slice index.
	routes []routeEntry

	// linkCons holds one persistent constraint per link direction, indexed
	// by 2*LinkID (+1 for the B→A direction), created lazily on first use.
	// cons lists the constraints that currently carry flows: flow add and
	// remove touch only the constraints on the flow's own path, and
	// recompute sweeps empty ones out lazily — nothing is rebuilt per
	// churn.
	linkCons []*constraint
	cons     []*constraint
	// liveCons is recomputeNow's scratch: the constraints still carrying
	// unfrozen flows, compacted between waterfill rounds so late rounds
	// scan only survivors instead of the whole active set. Compaction
	// preserves relative order, so equal-share ties resolve exactly as a
	// full scan would.
	liveCons []*constraint

	// freeFlows recycles Flow structs whose transfer fully completed and
	// whose waiter returned: the blocking helpers (Transfer,
	// TransferLimited, ParallelTransfer) release their flows here, so the
	// collective/storage traffic that dominates a training run reuses a
	// handful of Flow structs — including their done-signal waiter arrays
	// and cons backing — instead of allocating per transfer. Flows handed
	// out by StartFlow escape to the caller and are simply never recycled.
	freeFlows []*Flow
	// freeTimers recycles completion-timer thunks: each recompute arms one
	// timer carrying the allocation epoch it belongs to, and the thunk
	// returns itself to this list after it fires, making the arm
	// allocation-free in steady state.
	freeTimers []*completionTimer
	// armedTimer is the completion timer armed by the most recent
	// recompute, with the instant it was armed at and its fire time. When
	// several recomputes happen at the same instant and agree on the next
	// completion time (the symmetric ring channels of a collective do this
	// every round), re-arming just bumps the live timer's epoch instead of
	// enqueueing a superseding event — one completion event per instant
	// group instead of one per recompute.
	armedTimer *completionTimer
	armedAt    sim.Time
	armedFor   sim.Time

	// freeBatches recycles the grouped completion-signal events emitted by
	// finishCompleted (see signalBatch).
	freeBatches []*signalBatch

	// Dijkstra scratch (see dijkstra): reused across route computations,
	// and stamped with djEpoch instead of cleared per search.
	djDist  []int64
	djPrev  []dirLink
	djSeen  []uint32
	djEpoch uint32
	djRev   []dirLink
	djHeap  []heapItem

	// recomputeQueued coalesces same-instant recompute requests into one
	// deferred sweep (flushFn, created once in NewNetwork): rates computed
	// mid-instant are never read — advance over zero elapsed time is a
	// no-op — so the arm/complete/arm bursts of a collective round trigger
	// one max-min sweep instead of three.
	recomputeQueued bool
	flushFn         func()

	// auditor, when set, runs after every max-min recompute with the new
	// allocation in place. It is the allocator's invariant probe point
	// (internal/invariant checks capacity and conservation through it);
	// the nil check keeps the churn path free.
	auditor func()

	// obs, when set, traces the allocator: every flow's lifetime becomes
	// one fabric-track span, capacity changes become instants, and
	// recompute sweeps bump obsRecompute. Nil-checked at every seam so a
	// disabled collector costs one branch on the hot path.
	obs          *obs.Collector
	obsRecompute obs.CounterID
}

// SetAuditor installs fn to run after every allocation recompute, once the
// new fair-share rates are assigned. Pass nil to remove it. The auditor
// must not start or cancel flows; it observes through VisitAllocations,
// VisitFlows and the link byte counters.
func (n *Network) SetAuditor(fn func()) { n.auditor = fn }

// SetObs installs an observability collector on the allocator: flow
// add/remove pairs become spans, SetLinkCapacity emits degrade/repair
// instants, recompute sweeps are counted, and the active-flow population
// is registered as a gauge. Pass nil to disable.
func (n *Network) SetObs(c *obs.Collector) {
	n.obs = c
	if c == nil {
		return
	}
	n.obsRecompute = c.Registry().Counter("fabric.recomputes")
	c.Registry().Gauge("fabric.active_flows", func() float64 { return float64(len(n.flows)) })
}

// VisitAllocations calls fn for every link direction currently carrying
// flows, with the total allocated rate and the direction's capacity (both
// bytes/sec). Per-flow rate-cap constraints are not included; see
// Flow.MaxRate.
func (n *Network) VisitAllocations(fn func(l *Link, forward bool, allocated, capacity float64)) {
	n.ensureAllocated()
	for _, st := range n.cons {
		if st.link == nil || len(st.flows) == 0 {
			continue
		}
		total := 0.0
		for _, cf := range st.flows {
			total += cf.f.rate
		}
		fn(st.link, st.forward, total, st.capacity())
	}
}

// VisitFlows calls fn for every active flow in insertion order.
func (n *Network) VisitFlows(fn func(f *Flow)) {
	n.ensureAllocated()
	for _, f := range n.flows {
		fn(f)
	}
}

// constraint is one capacity limit in the max-min allocation: a direction
// of a link, or a flow's own rate cap (a virtual single-flow link).
// Constraints persist across recomputes; residual and unfrozen are
// refreshed at the start of each allocation epoch.
type constraint struct {
	link    *Link // nil for per-flow rate caps
	forward bool
	capped  float64 // rate cap when link is nil

	flows    []conFlow
	residual float64
	unfrozen int
	// active tracks membership in Network.cons so a constraint is never
	// listed twice; it stays set while the constraint sits in cons, even
	// after its last flow leaves, until a recompute sweeps it out.
	active bool
}

// conFlow is one entry in a constraint's membership list: the flow plus
// the index of this constraint within the flow's own cons list, so a
// swap-remove can fix the moved flow's back-pointer in O(1).
type conFlow struct {
	f    *Flow
	back int
}

// flowCon is the reverse edge: a constraint on the flow's path plus the
// flow's position in that constraint's flows list.
type flowCon struct {
	st  *constraint
	idx int
}

func (st *constraint) capacity() float64 {
	if st.link == nil {
		return st.capped
	}
	if st.forward {
		return float64(st.link.CapAtoB)
	}
	return float64(st.link.CapBtoA)
}

// NewNetwork creates an empty fabric bound to a simulation environment.
func NewNetwork(env *sim.Env) *Network {
	n := &Network{env: env}
	n.flushFn = func() {
		n.ensureAllocated()
	}
	return n
}

// Env returns the simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// Flow is an in-flight transfer. Its instantaneous rate is recomputed by
// the max-min fair allocator whenever the set of flows changes.
type Flow struct {
	Src, Dst  NodeID
	path      []dirLink
	remaining float64 // bytes
	rate      float64 // bytes/sec
	maxRate   float64 // 0 = unlimited; models endpoint media/DMA limits
	done      sim.Signal
	latency   time.Duration
	net       *Network

	// cons caches the constraints along the path (plus the rate cap, if
	// any), so recomputes never rebuild a flow→constraint index. Each
	// entry also records the flow's position in that constraint's flows
	// list, making membership removal O(1).
	cons []flowCon
	// capCon is the flow's persistent rate-cap constraint, created on the
	// first capped start and reused across recycles.
	capCon *constraint
	// idx is the flow's position in Network.flows.
	idx int
	// frozenEpoch marks the allocation epoch the flow was last frozen in,
	// replacing a per-recompute frozen set.
	frozenEpoch uint64
	// obsSpan is the flow's open trace span (0 = untraced); set by addFlow
	// and closed by removeFlow, surviving pooling because addFlow always
	// reassigns it.
	obsSpan obs.SpanID
}

// Done returns the signal fired when the flow (including its path latency)
// completes.
func (f *Flow) Done() *sim.Signal { return &f.done }

// Rate returns the flow's current allocated rate.
func (f *Flow) Rate() units.BytesPerSec {
	if f.net != nil {
		f.net.ensureAllocated()
	}
	return units.BytesPerSec(f.rate)
}

// Remaining returns the bytes not yet transferred, as of the last
// integration instant.
func (f *Flow) Remaining() units.Bytes { return units.Bytes(f.remaining) }

// MaxRate returns the flow's rate cap (0 = unlimited).
func (f *Flow) MaxRate() units.BytesPerSec { return units.BytesPerSec(f.maxRate) }

// StartFlow begins transferring size bytes src→dst and returns the flow.
// The returned flow's Done signal fires when the last byte arrives (transfer
// completion plus one-way path latency). Zero-length or same-node transfers
// complete after just the path latency.
func (n *Network) StartFlow(src, dst NodeID, size units.Bytes) (*Flow, error) {
	return n.StartFlowLimited(src, dst, size, 0)
}

// StartFlowLimited is StartFlow with a per-flow rate cap (0 = unlimited),
// used for endpoints whose internal media is slower than their link — an
// NVMe device's flash, a DMA engine's request rate.
//
//perf:hot
func (n *Network) StartFlowLimited(src, dst NodeID, size units.Bytes, maxRate units.BytesPerSec) (*Flow, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return nil, err
	}
	lat := n.EndpointOverhead
	for _, dl := range path {
		lat += dl.link.Latency
	}
	f := n.takeFlow()
	f.Src, f.Dst, f.path = src, dst, path
	f.remaining = float64(size)
	f.maxRate = float64(maxRate)
	f.latency = lat
	f.net = n
	n.advance()
	if f.remaining <= 0 || (len(path) == 0 && f.maxRate <= 0) {
		n.env.AfterSignal(lat, &f.done)
		return f, nil
	}
	n.addFlow(f)
	n.recomputeSync()
	return f, nil
}

// takeFlow pops a recycled Flow or allocates a fresh one. The caller
// overwrites every transfer field; rate and frozenEpoch are cleared here
// because the start paths rely on their zero values.
//
//perf:hot
func (n *Network) takeFlow() *Flow {
	if last := len(n.freeFlows) - 1; last >= 0 {
		f := n.freeFlows[last]
		n.freeFlows[last] = nil
		n.freeFlows = n.freeFlows[:last]
		f.rate = 0
		f.frozenEpoch = 0
		f.done.Reset()
		return f
	}
	return &Flow{net: n}
}

// releaseFlow recycles a flow whose Done signal has fired and whose
// waiters have all returned. Only the blocking helpers call it — a flow
// returned by StartFlow belongs to the caller, who may hold its Done
// signal indefinitely.
//
//perf:hot
func (n *Network) releaseFlow(f *Flow) {
	if !f.done.Fired() {
		panic("fabric: releaseFlow on an incomplete flow")
	}
	n.freeFlows = append(n.freeFlows, f)
}

// addFlow registers f with the active set and with the constraints on its
// path — the only link state touched is the flow's own.
//
//perf:hot
func (n *Network) addFlow(f *Flow) {
	f.obsSpan = 0
	if n.obs != nil {
		f.obsSpan = n.obs.Begin(obs.CatFabric, "flow")
		n.obs.SetAttr(f.obsSpan, "src", int64(f.Src))
		n.obs.SetAttr(f.obsSpan, "dst", int64(f.Dst))
	}
	f.idx = len(n.flows)
	n.flows = append(n.flows, f)
	if cap(f.cons) < len(f.path)+1 {
		f.cons = make([]flowCon, 0, len(f.path)+1)
	} else {
		f.cons = f.cons[:0]
	}
	for _, dl := range f.path {
		st := n.linkConstraint(dl)
		st.flows = append(st.flows, conFlow{f: f, back: len(f.cons)})
		if !st.active {
			st.active = true
			n.cons = append(n.cons, st)
		}
		f.cons = append(f.cons, flowCon{st: st, idx: len(st.flows) - 1})
	}
	if f.maxRate > 0 {
		st := f.capCon
		if st == nil {
			st = &constraint{}
			f.capCon = st
		}
		st.capped = f.maxRate
		st.flows = append(st.flows[:0], conFlow{f: f, back: len(f.cons)})
		capIdx := 0
		// A recycled flow's cap constraint is always swept out of cons by
		// the recompute that followed its removal, so re-appending here
		// keeps exactly the ordering a freshly allocated constraint had.
		if !st.active {
			st.active = true
			n.cons = append(n.cons, st)
		}
		f.cons = append(f.cons, flowCon{st: st, idx: capIdx})
	}
}

// removeFlow unregisters a completed flow, again touching only the
// constraints on its own path. Emptied constraints are left in cons for the
// next recompute to sweep out. The conIdx back-pointers make each
// membership removal O(1): the tail entry is swapped into the vacated
// slot (exactly the order the old linear scan produced) and its flow's
// back-pointer is patched.
//
//perf:hot
func (n *Network) removeFlow(f *Flow) {
	if n.obs != nil && f.obsSpan != 0 {
		n.obs.End(f.obsSpan)
		f.obsSpan = 0
	}
	last := len(n.flows) - 1
	n.flows[f.idx] = n.flows[last]
	n.flows[f.idx].idx = f.idx
	n.flows[last] = nil
	n.flows = n.flows[:last]
	for ci, fc := range f.cons {
		st := fc.st
		i := fc.idx
		m := len(st.flows) - 1
		moved := st.flows[m]
		st.flows[i] = moved
		moved.f.cons[moved.back].idx = i
		st.flows[m] = conFlow{}
		st.flows = st.flows[:m]
		f.cons[ci] = flowCon{}
	}
	f.cons = f.cons[:0]
}

// linkConstraint returns the persistent constraint for one link direction,
// creating it on first use.
//
//perf:hot
func (n *Network) linkConstraint(dl dirLink) *constraint {
	i := 2 * int(dl.link.ID)
	if !dl.forward {
		i++
	}
	st := n.linkCons[i]
	if st == nil {
		st = &constraint{link: dl.link, forward: dl.forward}
		n.linkCons[i] = st
	}
	return st
}

// TransferLimited moves size bytes with a per-flow rate cap, blocking until
// arrival.
//
//perf:hot
func (n *Network) TransferLimited(p *sim.Proc, src, dst NodeID, size units.Bytes, maxRate units.BytesPerSec) error {
	f, err := n.StartFlowLimited(src, dst, size, maxRate)
	if err != nil {
		return err
	}
	f.done.Wait(p)
	n.releaseFlow(f)
	return nil
}

// Transfer moves size bytes src→dst, blocking the calling process until the
// data has fully arrived. It is the common case wrapper around StartFlow.
//
//perf:hot
func (n *Network) Transfer(p *sim.Proc, src, dst NodeID, size units.Bytes) error {
	f, err := n.StartFlow(src, dst, size)
	if err != nil {
		return err
	}
	f.done.Wait(p)
	n.releaseFlow(f)
	return nil
}

// parallelStackWidth is the widest ParallelTransfer served from a stack
// buffer; collective ring passes and restore fan-outs have one leg per
// rank, far below it.
const parallelStackWidth = 32

// ParallelTransfer starts one flow per (src,dst,size) triple and blocks
// until all complete: the building block for collective steps. All legs
// begin at the same instant, so the fair-share allocation is recomputed
// once for the whole batch — the per-leg recomputes a StartFlow loop
// would run produce no observable allocation (no virtual time passes
// between them) and only cost CPU.
//
//perf:hot
func (n *Network) ParallelTransfer(p *sim.Proc, xs []TransferSpec) error {
	return n.ParallelTransferPadded(p, xs, 0)
}

// ParallelTransferPadded is ParallelTransfer followed by a proportional
// cool-down: the caller resumes at T + (T − now) × padFactor, where T is
// the instant the slowest leg completes. The collective rings use it to
// charge per-round protocol overhead without a second park per round.
//
//perf:hot
func (n *Network) ParallelTransferPadded(p *sim.Proc, xs []TransferSpec, padFactor float64) error {
	from := n.env.Now()
	var buf [parallelStackWidth]*Flow
	flows := buf[:0]
	if len(xs) > parallelStackWidth {
		flows = make([]*Flow, 0, len(xs))
	}
	flows, err := n.startLegs(xs, flows)
	if err != nil {
		return err
	}
	// One park for the whole batch: the wait resumes when the slowest leg
	// completes (plus the pad), exactly when the last of the sequential
	// Waits (plus a Sleep) would have.
	var sigBuf [parallelStackWidth]*sim.Signal
	sigs := sigBuf[:0]
	if len(flows) > parallelStackWidth {
		sigs = make([]*sim.Signal, 0, len(flows))
	}
	for _, f := range flows {
		sigs = append(sigs, &f.done)
	}
	sim.WaitAllPadded(p, sigs, from, padFactor)
	for _, f := range flows {
		n.releaseFlow(f)
	}
	return nil
}

// startLegs starts one flow per spec, appending to flows, with a single
// fair-share recompute for the whole batch. On a routing error the legs
// already admitted keep running (they were observably started); the error
// is returned after their rates are fixed up.
//
//perf:hot
func (n *Network) startLegs(xs []TransferSpec, flows []*Flow) ([]*Flow, error) {
	n.advance()
	added := false
	for _, x := range xs {
		path, err := n.Route(x.Src, x.Dst)
		if err != nil {
			if added {
				n.recompute() // flows already admitted must get rates
			}
			return flows, err
		}
		lat := n.EndpointOverhead
		for _, dl := range path {
			lat += dl.link.Latency
		}
		f := n.takeFlow()
		f.Src, f.Dst, f.path = x.Src, x.Dst, path
		f.remaining = float64(x.Size)
		f.maxRate = 0
		f.latency = lat
		f.net = n
		if f.remaining <= 0 || len(path) == 0 {
			n.env.AfterSignal(lat, &f.done)
		} else {
			n.addFlow(f)
			added = true
		}
		flows = append(flows, f)
	}
	if added {
		n.recompute()
	}
	return flows, nil
}

// ArmParallelTransfer is the stepper form of ParallelTransferPadded: it
// starts every leg and registers sp to step when the slowest completes,
// padded by (T − now) × padFactor, at the exact event position the
// blocking form would have resumed at. The started flows are appended to
// *out; the stepper releases them via ReleaseFlows at the start of its
// next step. Returns false (with no registration) if every leg finished
// instantly — the caller continues inline, as the blocking form would
// have.
//
//perf:hot
func (n *Network) ArmParallelTransfer(sp *sim.Proc, xs []TransferSpec, padFactor float64, out *[]*Flow) (bool, error) {
	from := n.env.Now()
	flows, err := n.startLegs(xs, (*out)[:0])
	*out = flows
	if err != nil {
		return false, err
	}
	var sigBuf [parallelStackWidth]*sim.Signal
	sigs := sigBuf[:0]
	if len(flows) > parallelStackWidth {
		sigs = make([]*sim.Signal, 0, len(flows))
	}
	for _, f := range flows {
		sigs = append(sigs, &f.done)
	}
	return sim.ArmWaitAllPadded(sp, sigs, from, padFactor), nil
}

// ReleaseFlows returns a batch of completed flows to the pool and
// truncates the slice in place.
//
//perf:hot
func (n *Network) ReleaseFlows(fs *[]*Flow) {
	for i, f := range *fs {
		n.releaseFlow(f)
		(*fs)[i] = nil
	}
	*fs = (*fs)[:0]
}

// TransferSpec names one leg of a parallel transfer.
type TransferSpec struct {
	Src, Dst NodeID
	Size     units.Bytes
}

// advance integrates all flows from lastUpdate to now at their current
// rates, crediting per-link byte counters.
//
//perf:hot
func (n *Network) advance() {
	now := n.env.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, dl := range f.path {
			dl.addBytes(moved)
		}
	}
}

// recompute runs max-min fair allocation over the active flows and
// schedules the next completion event. It must be called with counters
// already advanced to the current instant.
//
// The sweep is incremental in its bookkeeping: constraints persist between
// calls (no byKey/flowCons maps are rebuilt), frozen state is an epoch
// stamp on each flow, and per-constraint unfrozen counts replace the
// per-round rescans of every constraint's flow list.
//
//perf:hot
func (n *Network) recompute() {
	if n.recomputeQueued {
		return
	}
	n.recomputeQueued = true
	n.env.After(0, n.flushFn)
}

// recomputeSync runs the sweep immediately, absorbing any pending
// deferred request. Paths that are normally the only recompute of their
// instant (flow completion, single flow starts, capacity changes) use it
// so they don't pay for a flush event that coalesces nothing.
//
//perf:hot
func (n *Network) recomputeSync() {
	n.recomputeQueued = false
	n.recomputeNow()
}

// ensureAllocated runs a pending deferred recompute immediately. Read
// APIs (Rate, VisitAllocations, VisitFlows) call it so a caller inspecting
// allocations in the same instant as a flow change sees fresh rates; the
// already-queued flush event then no-ops.
func (n *Network) ensureAllocated() {
	if !n.recomputeQueued {
		return
	}
	n.recomputeQueued = false
	n.recomputeNow()
}

// recomputeNow is the deferred body of recompute; it runs once per
// instant that requested one, via flushFn.
//
//perf:hot
func (n *Network) recomputeNow() {
	if n.obs != nil {
		n.obs.Inc(n.obsRecompute)
	}
	n.epoch++
	if len(n.flows) == 0 {
		if n.auditor != nil {
			n.auditor()
		}
		return
	}

	// Refresh the active constraints for this epoch, sweeping out the
	// ones whose last flow has left.
	cons := n.cons[:0]
	for _, st := range n.cons {
		if len(st.flows) == 0 {
			st.active = false
			continue
		}
		st.residual = st.capacity()
		st.unfrozen = len(st.flows)
		cons = append(cons, st)
	}
	for i := len(cons); i < len(n.cons); i++ {
		n.cons[i] = nil
	}
	n.cons = cons

	// Progressive filling: repeatedly find the most constrained
	// constraint (smallest fair share among its unfrozen flows), freeze
	// those flows at that share, remove their demand, repeat. Every
	// admitted flow sits on at least one constraint and each round
	// freezes every flow of the winning constraint, so the loop below
	// assigns every flow's rate — no reset pass is needed first.
	frozen := 0
	live := append(n.liveCons[:0], cons...)
	for frozen < len(n.flows) {
		bestShare := math.Inf(1)
		var best *constraint
		// Scan for the minimum share, compacting out constraints whose
		// flows all froze in earlier rounds as we go: collective-heavy
		// runs freeze most constraints in the first round or two, so late
		// rounds scan a short tail instead of the whole active set.
		w := 0
		for _, st := range live {
			if st.unfrozen == 0 {
				continue
			}
			live[w] = st
			w++
			share := st.residual / float64(st.unfrozen)
			if share < bestShare {
				bestShare, best = share, st
			}
		}
		live = live[:w]
		if best == nil {
			break
		}
		for _, cf := range best.flows {
			f := cf.f
			if f.frozenEpoch == n.epoch {
				continue
			}
			f.frozenEpoch = n.epoch
			f.rate = bestShare
			frozen++
			for _, fc := range f.cons {
				st := fc.st
				st.residual -= bestShare
				if st.residual < 0 {
					st.residual = 0
				}
				st.unfrozen--
			}
		}
	}
	n.liveCons = live[:0]

	// Schedule the next completion.
	nextIn := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < nextIn {
			nextIn = t
		}
	}
	if math.IsInf(nextIn, 1) {
		// No flow can make progress: a configuration error (zero-capacity
		// path). Surface loudly rather than hanging the simulation.
		//lint:allow hotalloc(panic path only: formats a configuration-error report)
		panic(fmt.Sprintf("fabric: %d flows with zero allocated rate", len(n.flows)))
	}
	n.armCompletionTimer(durationFromSeconds(nextIn))
	if n.auditor != nil {
		n.auditor()
	}
}

// completionTimer is a reusable epoch-guarded completion thunk. Each
// recompute arms one; superseded timers fire as no-ops. The thunk is
// created once per timer object and recycles itself after firing, so
// arming allocates nothing in steady state.
type completionTimer struct {
	n     *Network
	epoch uint64
	fn    func()
}

// armCompletionTimer schedules the next flow-completion check for the
// current allocation epoch.
//
//perf:hot
func (n *Network) armCompletionTimer(d time.Duration) {
	now := n.env.Now()
	at := now + sim.Time(d)
	if t := n.armedTimer; t != nil && n.armedAt == now && n.armedFor == at {
		// Same instant, same deadline: the already-queued timer does this
		// epoch's work (it would have fired stale and been immediately
		// followed by an identical live timer at the same instant).
		t.epoch = n.epoch
		return
	}
	var t *completionTimer
	if last := len(n.freeTimers) - 1; last >= 0 {
		t = n.freeTimers[last]
		n.freeTimers[last] = nil
		n.freeTimers = n.freeTimers[:last]
	} else {
		t = &completionTimer{n: n}
		//lint:allow hotalloc(one closure per pooled timer object, created on the pool-miss path and reused forever)
		t.fn = func() {
			if t.n.armedTimer == t {
				t.n.armedTimer = nil
			}
			if t.n.epoch == t.epoch {
				t.n.advance()
				t.n.finishCompleted()
			}
			t.n.freeTimers = append(t.n.freeTimers, t)
		}
	}
	t.epoch = n.epoch
	n.armedTimer, n.armedAt, n.armedFor = t, now, at
	n.env.After(d, t.fn)
}

// completionEpsilon absorbs float rounding when deciding a flow is done.
const completionEpsilon = 1e-3 // bytes

//perf:hot
func (n *Network) finishCompleted() {
	var doneBuf [16]*Flow
	done := doneBuf[:0]
	for i := 0; i < len(n.flows); {
		f := n.flows[i]
		if f.remaining > completionEpsilon {
			i++
			continue
		}
		n.removeFlow(f) // swaps the tail into slot i; revisit it
		done = append(done, f)
	}
	// Completion signals with the same path latency fire at the same
	// instant; emit each such group as one batched event instead of one
	// heap event per flow (a ring round retires every leg at once). The
	// batch fires its signals in the order the per-flow events would have
	// had, so event positions are unchanged.
	for len(done) > 0 {
		lat := done[0].latency
		b := n.takeBatch()
		keep := done[:0]
		for _, f := range done {
			if f.latency == lat {
				b.sigs = append(b.sigs, &f.done)
			} else {
				keep = append(keep, f)
			}
		}
		if len(b.sigs) == 1 {
			// Sole flow at this latency: a plain signal event is cheaper.
			n.env.AfterSignal(lat, b.sigs[0])
			b.sigs[0] = nil
			b.sigs = b.sigs[:0]
			n.freeBatches = append(n.freeBatches, b)
		} else {
			n.env.After(lat, b.fn)
		}
		done = keep
	}
	n.recomputeSync()
}

// signalBatch fires a group of completion signals that share one fire
// instant as a single event. The thunk is created once per pooled batch
// and recycles itself after firing.
type signalBatch struct {
	n    *Network
	sigs []*sim.Signal
	fn   func()
}

//perf:hot
func (n *Network) takeBatch() *signalBatch {
	if last := len(n.freeBatches) - 1; last >= 0 {
		b := n.freeBatches[last]
		n.freeBatches[last] = nil
		n.freeBatches = n.freeBatches[:last]
		return b
	}
	b := &signalBatch{n: n}
	//lint:allow hotalloc(one closure per pooled batch object, created on the pool-miss path and reused forever)
	b.fn = func() {
		e := b.n.env
		for i, s := range b.sigs {
			s.Fire(e)
			b.sigs[i] = nil
		}
		b.sigs = b.sigs[:0]
		b.n.freeBatches = append(b.n.freeBatches, b)
	}
	return b
}

func durationFromSeconds(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	d := time.Duration(s * float64(time.Second))
	// Guard against rounding to zero, which would busy-loop the engine:
	// always make at least 1ns of progress.
	if d == 0 {
		d = time.Nanosecond
	}
	return d
}

// SetLinkCapacity changes both directions of a link mid-run — the fault
// engine's degradation/outage/repair primitive. In-flight traffic is
// integrated at the old rates up to the current instant, then the fair
// shares are recomputed under the new capacities, so flows crossing the
// link slow down (or thaw on repair) immediately and deterministically.
// Capacities must stay positive: a true zero would wedge flows forever;
// outages use a small floor (faults.OutageFloor) instead.
func (n *Network) SetLinkCapacity(id LinkID, capAB, capBA units.BytesPerSec) {
	if capAB <= 0 || capBA <= 0 {
		panic(fmt.Sprintf("fabric: link %d capacity must stay positive (got %v/%v)", id, capAB, capBA))
	}
	n.advance()
	l := n.links[id]
	if n.obs != nil {
		name := "link-repair"
		if capAB < l.CapAtoB || capBA < l.CapBtoA {
			name = "link-degrade"
		}
		ev := n.obs.Instant(obs.CatFabric, name)
		n.obs.SetAttr(ev, "link", int64(id))
	}
	l.CapAtoB, l.CapBtoA = capAB, capBA
	n.recomputeSync()
}

// Traverses reports whether the flow's path crosses the link (either
// direction). The fault-aware invariant probes use it to assert no live
// flow rides a dead device's link.
func (f *Flow) Traverses(id LinkID) bool {
	for _, dl := range f.path {
		if dl.link.ID == id {
			return true
		}
	}
	return false
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// LinkTrafficSnapshot returns cumulative (A→B, B→A) bytes for a link after
// integrating flows to the current instant. Monitors diff two snapshots to
// get a rate, exactly as the Falcon GUI computes per-port GB/s.
func (n *Network) LinkTrafficSnapshot(id LinkID) (ab, ba units.Bytes) {
	n.advance()
	l := n.links[id]
	return l.BytesAtoB(), l.BytesBtoA()
}
