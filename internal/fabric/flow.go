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
	// linkDirs holds each link's routed directions, those with capacity
	// when Connect ran (bit 0: A→B, bit 1: B→A); buildAdj reads it, so
	// a later SetLinkCapacity never changes the routing adjacency.
	linkDirs []uint8

	// EndpointOverhead is added once per transfer to model DMA/driver
	// setup at the endpoints; it dominates small-message p2p latency.
	EndpointOverhead time.Duration

	// flows is the active set in deterministic insertion order (removal
	// swaps the tail in; each flow tracks its index).
	flows      []*Flow
	lastUpdate sim.Time
	epoch      uint64
	// routes is the route cache (see Route): one row of computed routes
	// per source, indexed by NodeID.
	routes [][]routeEntry
	// graph is the graph generation, bumped with every change that drops
	// the route cache (AddNode, Connect). A prepared LegSet resolved under
	// an older generation is resolved again before it is armed.
	graph uint64

	// linkCons holds one persistent constraint per link direction, indexed
	// by 2*LinkID (+1 for the B→A direction), created lazily on first use.
	// cons lists the constraints that currently carry flows: flow add and
	// remove touch only the constraints on the flow's own path, and
	// recompute sweeps empty ones out lazily — nothing is rebuilt per
	// churn.
	linkCons []*constraint
	cons     []*constraint
	// touched lists the constraints whose flow set or capacity changed
	// since the last recompute: addFlow, removeFlow and SetLinkCapacity
	// append to it. recomputeNow floods from these seeds over the
	// flow↔constraint graph and re-solves only the components it reaches;
	// every other component's rates are already its max-min solution. The
	// slice doubles as the flood's worklist and is truncated after each
	// recompute.
	touched []*constraint
	// liveCons is recomputeNow's scratch: the constraints still carrying
	// unfrozen flows, compacted on each waterfill scan so late scans
	// cover only survivors instead of the whole active set. Compaction
	// preserves relative order, so equal-share ties resolve exactly as a
	// full scan would.
	liveCons []*constraint
	// ties is recomputeNow's other scratch: the constraints one scan found
	// tied at the minimum share, in live order.
	ties []*constraint
	// solvedFlows, solvedRounds and scanPasses count, over the network's
	// lifetime, the flows re-solved, the waterfill rounds (winners) run by
	// recomputes and the scans of their live constraints. Tests read them
	// to prove that a change re-solves only its own component and that a
	// share level costs one scan, not one per tied constraint. scanPasses
	// doubles as the stamp that marks a scan's tie list (constraint.tie).
	solvedFlows, solvedRounds, scanPasses int
	// earlyStops counts, by reason, the tie batches recomputeNow cut short
	// for a fresh scan; the tie oracle test proves each reason occurs.
	earlyStops [numEarlyStops]int

	// freeFlows recycles Flow structs whose transfer fully completed and
	// whose waiter returned: the blocking helpers (Transfer,
	// TransferLimited, ParallelTransfer), the arm forms and prepared leg
	// sets release their flows here, so the collective/storage traffic that
	// dominates a training run reuses a handful of Flow structs — including
	// their done-signal waiter arrays and cons backing — instead of
	// allocating per transfer. A flow handed out by StartFlow belongs to
	// its caller, who returns it with ReleaseFlow once its Done has fired
	// and nothing waits on it any more; one never released is simply not
	// recycled.
	freeFlows []*Flow
	// legBufs and legSigs serve parallel transfers wider than a stack
	// buffer (parallelStackWidth): legBufs recycles ParallelTransfer's flow
	// lists, which live across the caller's park, and legSigs is the leg
	// signal list handed to the wait registration, which keeps no
	// reference to it.
	legBufs [][]*Flow
	legSigs []*sim.Signal
	// legs and legCons are the spec forms' resolution scratch (see
	// resolve); legCons also holds a single flow's path constraints while
	// StartFlowLimited admits it.
	legs    []leg
	legCons []*constraint

	// alarm is the network's only completion timer: every recompute sets
	// it to the next flow completion, replacing the instance it armed
	// before, so a superseded deadline never becomes an event. armedAt is
	// the instant it was last set. When several recomputes at one instant
	// agree on the next completion (the symmetric ring channels of a
	// collective do this every round), the pending alarm already covers
	// them and re-arming consumes no sequence number.
	alarm   *sim.Alarm
	armedAt sim.Time
	// checks counts the alarm's runs and emptyChecks those that retired
	// nothing and took the one-pass path (see checkCompletions); tests
	// read them.
	checks, emptyChecks int

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
	// routeSearches, routePops and adjBuilds count the searches, their
	// heap pops and the adjacency builds over the network's lifetime;
	// tests read them to prove that a search to a leaf stays local.
	routeSearches, routePops, adjBuilds int

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

	// nodeSlab and linkSlab hold what Reserve set aside: the Node and
	// Link structs AddNode and Connect take before the heap. Only graph
	// building reads them, so they sit last, off the allocator's hot fields.
	nodeSlab []Node
	linkSlab []Link

	// adjOff, adjList and degree are the routing adjacency, built by the
	// first search after a graph change (at graph generation adjGen):
	// node v's out-directions are adjList[adjOff[v]:adjOff[v+1]], and
	// degree[v] counts its links in either direction.
	adjOff  []int32
	adjList []dirLink
	degree  []int32
	adjGen  uint64
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
	// active tracks membership in Network.cons so a constraint is never
	// listed twice; it stays set while the constraint sits in cons, even
	// after its last flow leaves, until a recompute sweeps it out.
	active bool
	capped float64 // rate cap when link is nil

	flows    []conFlow
	residual float64
	unfrozen int
	// mark is the allocation epoch of the last recompute whose flood
	// reached this constraint; only marked constraints are re-solved.
	mark uint64
	// tie is the scan pass (Network.scanPasses) that last found this
	// constraint tied at the minimum share.
	tie int
}

// Reasons a waterfill tie batch stops early, indexing Network.earlyStops:
// a freeze pushed some share below the level, brought a constraint outside
// the tie list onto the level, or moved the next tie's share off it.
const (
	stopBelow = iota
	stopNewTie
	stopTieMoved
	numEarlyStops
)

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
	n := &Network{env: env, graph: 1}
	n.flushFn = func() {
		n.ensureAllocated()
	}
	n.alarm = env.NewAlarm(n.checkCompletions)
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
	// compEpoch marks the allocation epoch whose flood last reached the
	// flow, so each re-solved flow is counted once.
	compEpoch uint64
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
	n.legCons = n.appendPathCons(n.legCons[:0], path)
	n.addFlow(f, n.legCons)
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

// ReleaseFlow returns a flow to the pool once its Done signal has fired
// and its waiters have all returned; the flow must not be used afterwards.
// The blocking helpers and arm forms release their own flows. A flow
// returned by StartFlow belongs to the caller, who may hold its Done
// signal as long as it likes and may hand it back here when done with it.
// It panics if the flow has not completed.
//
//perf:hot
func (n *Network) ReleaseFlow(f *Flow) {
	if !f.done.Fired() {
		panic("fabric: ReleaseFlow on an incomplete flow")
	}
	n.freeFlows = append(n.freeFlows, f)
}

// appendPathCons appends the link constraint of each hop of path to cons.
//
//perf:hot
func (n *Network) appendPathCons(cons []*constraint, path []dirLink) []*constraint {
	for _, dl := range path {
		cons = append(cons, n.linkConstraint(dl))
	}
	return cons
}

// addFlow registers f with the active set and with cons, the link
// constraints of its path in path order — the only link state touched is
// the flow's own — and seeds the next recompute with those constraints.
//
//perf:hot
func (n *Network) addFlow(f *Flow, cons []*constraint) {
	f.obsSpan = 0
	if n.obs != nil {
		f.obsSpan = n.obs.Begin(obs.CatFabric, "flow")
		n.obs.SetAttr(f.obsSpan, "src", int64(f.Src))
		n.obs.SetAttr(f.obsSpan, "dst", int64(f.Dst))
	}
	f.idx = len(n.flows)
	n.flows = append(n.flows, f)
	if cap(f.cons) < len(cons)+1 {
		f.cons = make([]flowCon, 0, len(cons)+1)
	} else {
		f.cons = f.cons[:0]
	}
	for _, st := range cons {
		st.flows = append(st.flows, conFlow{f: f, back: len(f.cons)})
		if !st.active {
			st.active = true
			n.cons = append(n.cons, st)
		}
		f.cons = append(f.cons, flowCon{st: st, idx: len(st.flows) - 1})
		n.touched = append(n.touched, st)
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
		n.touched = append(n.touched, st)
	}
}

// removeFlow unregisters a completed flow, again touching only the
// constraints on its own path, and seeds the next recompute with them.
// Emptied constraints are left in cons for the next recompute to sweep
// out. The conIdx back-pointers make each membership removal O(1): the
// tail entry is swapped into the vacated slot (exactly the order the old
// linear scan produced) and its flow's back-pointer is patched.
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
		n.touched = append(n.touched, st)
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
	var t TransferOp
	for {
		armed, err := n.ArmTransferLimited(p, &t, src, dst, size, maxRate)
		if !armed {
			return err
		}
		p.Park()
	}
}

// Transfer moves size bytes src→dst, blocking the calling process until the
// data has fully arrived. It is the common case wrapper around StartFlow.
//
//perf:hot
func (n *Network) Transfer(p *sim.Proc, src, dst NodeID, size units.Bytes) error {
	return n.TransferLimited(p, src, dst, size, 0)
}

// TransferOp is the caller-held state of one ArmTransfer: the flow in
// flight, if any. The zero value is ready, and it returns to zero when the
// transfer completes.
type TransferOp struct{ f *Flow }

// ArmTransfer is Transfer for steppers; see ArmTransferLimited.
//
//perf:hot
func (n *Network) ArmTransfer(sp *sim.Proc, t *TransferOp, src, dst NodeID, size units.Bytes) (bool, error) {
	return n.ArmTransferLimited(sp, t, src, dst, size, 0)
}

// ArmTransferLimited is TransferLimited for steppers. The first call starts
// the flow and arms sp on its arrival, returning true; calling it again on
// that step recycles the finished flow and returns false. A routing error
// is returned, unarmed, from the first call.
//
//perf:hot
func (n *Network) ArmTransferLimited(sp *sim.Proc, t *TransferOp, src, dst NodeID, size units.Bytes, maxRate units.BytesPerSec) (bool, error) {
	if f := t.f; f != nil {
		t.f = nil
		n.ReleaseFlow(f)
		return false, nil
	}
	f, err := n.StartFlowLimited(src, dst, size, maxRate)
	if err != nil {
		return false, err
	}
	if f.done.Arm(sp) {
		t.f = f
		return true, nil
	}
	n.ReleaseFlow(f)
	return false, nil
}

// parallelStackWidth is the widest parallel transfer served from stack
// buffers; collective ring passes and restore fan-outs have one leg per
// rank, and wider batches use the network's pooled lists.
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
	var buf [parallelStackWidth]*Flow
	flows := buf[:0]
	// A wider batch takes a pooled list with room for every leg, so the
	// appends never move it and it goes back to the pool as it came.
	var wide []*Flow
	if len(xs) > len(buf) {
		if last := len(n.legBufs) - 1; last >= 0 {
			wide = n.legBufs[last]
			n.legBufs[last] = nil
			n.legBufs = n.legBufs[:last]
		}
		if cap(wide) < len(xs) {
			wide = make([]*Flow, 0, len(xs))
		}
		flows = wide
	}
	// One park for the whole batch: the wait resumes when the slowest leg
	// completes (plus the pad), exactly when the last of the sequential
	// Waits (plus a Sleep) would have. With nothing pending no time has
	// passed since the legs started, so there is nothing to pad.
	flows, armed, err := n.armLegs(p, xs, padFactor, flows)
	if err != nil {
		return err
	}
	if armed {
		p.Park()
	}
	for i, f := range flows {
		n.ReleaseFlow(f)
		flows[i] = nil
	}
	if wide != nil {
		n.legBufs = append(n.legBufs, wide[:0])
	}
	return nil
}

// leg is one resolved leg of a parallel transfer: its endpoints and size,
// its route, the summed latency of the route's links (the endpoint
// overhead is added as the leg starts) and con, the offset of the route's
// link constraints, one per hop, in the owner's constraint block.
type leg struct {
	src, dst NodeID
	size     units.Bytes
	path     []dirLink
	hopLat   time.Duration
	con      int
}

// resolve routes legs in order and fills in each one's path, hop latency
// and constraint offset, writing the constraints into cons, which is
// reused when it has room and otherwise replaced by one block of exactly
// the size needed. It stops at the first unreachable leg and returns the
// legs resolved before it, the block and the routing error.
//
//perf:hot
func (n *Network) resolve(legs []leg, cons []*constraint) ([]leg, []*constraint, error) {
	var err error
	k, hops := 0, 0
	for ; k < len(legs); k++ {
		l := &legs[k]
		if l.path, err = n.Route(l.src, l.dst); err != nil {
			break
		}
		l.hopLat = 0
		for _, dl := range l.path {
			l.hopLat += dl.link.Latency
		}
		hops += len(l.path)
	}
	if cap(cons) < hops {
		cons = make([]*constraint, 0, hops)
	}
	cons = cons[:0]
	for i := range legs[:k] {
		legs[i].con = len(cons)
		cons = n.appendPathCons(cons, legs[i].path)
	}
	return legs[:k], cons, err
}

// armResolved is the one leg-arming body, behind both the spec forms and
// prepared leg sets: it starts one flow per resolved leg, appending to
// flows, with a single fair-share recompute for the whole batch, and
// registers sp on their completion, padded by (T − now) × padFactor.
// routeErr is the error that stopped resolution after legs: those legs
// still start and keep running (they were observably admitted before the
// unreachable one), sp is not registered and the error is returned. The
// flow list comes back as a result, not through a pointer, so a caller's
// stack buffer stays on the stack.
//
//perf:hot
func (n *Network) armResolved(sp *sim.Proc, legs []leg, cons []*constraint, routeErr error, padFactor float64, flows []*Flow) ([]*Flow, bool, error) {
	from := n.env.Now()
	n.advance()
	added := false
	for i := range legs {
		l := &legs[i]
		lat := n.EndpointOverhead + l.hopLat
		f := n.takeFlow()
		f.Src, f.Dst, f.path = l.src, l.dst, l.path
		f.remaining = float64(l.size)
		f.maxRate = 0
		f.latency = lat
		f.net = n
		if f.remaining <= 0 || len(l.path) == 0 {
			n.env.AfterSignal(lat, &f.done)
		} else {
			n.addFlow(f, cons[l.con:l.con+len(l.path)])
			added = true
		}
		flows = append(flows, f)
	}
	if added {
		n.recompute()
	}
	if routeErr != nil {
		return flows, false, routeErr
	}
	var buf [parallelStackWidth]*sim.Signal
	sigs := buf[:0]
	if len(flows) > len(buf) {
		if cap(n.legSigs) < len(flows) {
			n.legSigs = make([]*sim.Signal, 0, len(flows))
		}
		sigs = n.legSigs[:0]
	}
	for _, f := range flows {
		sigs = append(sigs, &f.done)
	}
	armed := sim.ArmWaitAllPadded(sp, sigs, from, padFactor)
	clear(sigs)
	return flows, armed, nil
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
	flows, armed, err := n.armLegs(sp, xs, padFactor, (*out)[:0])
	*out = flows
	return armed, err
}

// armLegs resolves xs into the network's scratch and arms them: the body
// of both spec forms.
//
//perf:hot
func (n *Network) armLegs(sp *sim.Proc, xs []TransferSpec, padFactor float64, flows []*Flow) ([]*Flow, bool, error) {
	legs := n.legs[:0]
	for _, x := range xs {
		legs = append(legs, leg{src: x.Src, dst: x.Dst, size: x.Size})
	}
	n.legs = legs
	legs, cons, err := n.resolve(legs, n.legCons)
	n.legCons = cons
	return n.armResolved(sp, legs, cons, err, padFactor, flows)
}

// LegSet is a parallel transfer resolved once and armed many times: the
// legs of a collective ring channel, whose endpoints stay fixed while the
// communicator lives. Arm starts every leg with one size and arms a
// stepper on their completion, with exactly the calls and event positions
// of ArmParallelTransfer over the same legs, but without routing, summing
// latencies or looking up link constraints each time. A set resolved
// before the graph changed (AddNode, Connect) is resolved again before it
// is next armed.
type LegSet struct {
	n    *Network
	legs []leg
	// cons holds every leg's link constraints in one block, sized when the
	// set is resolved.
	cons []*constraint
	// gen is the graph generation the legs were resolved under; 0 until
	// they first are.
	gen uint64
	// size is the size the legs carry, set by Arm.
	size units.Bytes
	// flows holds the armed round's flows until Release.
	flows []*Flow
}

// NewLegSet returns an empty leg set with room for legs legs. Nothing is
// routed until the set is first armed.
func (n *Network) NewLegSet(legs int) *LegSet {
	return &LegSet{n: n, legs: make([]leg, 0, legs), flows: make([]*Flow, 0, legs)}
}

// Add appends a src→dst leg; legs start in the order they were added.
func (s *LegSet) Add(src, dst NodeID) {
	s.legs = append(s.legs, leg{src: src, dst: dst, size: s.size})
	s.gen = 0
}

// Reset empties the set for a new group of legs, keeping its blocks.
// The last round's flows must have gone back through Release.
//
//perf:hot
func (s *LegSet) Reset() {
	s.legs = s.legs[:0]
	s.gen = 0
}

// Arm starts every leg with size bytes and registers sp to step when the
// slowest completes, padded by (T − now) × padFactor, exactly as
// ArmParallelTransfer does with the same legs in the same order. It
// returns false, with no registration, if every leg finished instantly.
// On a routing error the legs resolved before the unreachable one keep
// running and the error is returned. The previous round's flows must have
// gone back through Release.
//
//perf:hot
func (s *LegSet) Arm(sp *sim.Proc, size units.Bytes, padFactor float64) (bool, error) {
	n := s.n
	if size != s.size {
		for i := range s.legs {
			s.legs[i].size = size
		}
		s.size = size
	}
	legs := s.legs
	var err error
	if s.gen != n.graph {
		legs, s.cons, err = n.resolve(s.legs, s.cons)
		if err == nil {
			s.gen = n.graph
		}
	}
	flows, armed, err := n.armResolved(sp, legs, s.cons, err, padFactor, s.flows[:0])
	s.flows = flows
	return armed, err
}

// Release returns the last round's flows to the pool; every one must have
// completed.
//
//perf:hot
func (s *LegSet) Release() { s.n.ReleaseFlows(&s.flows) }

// ReleaseFlows returns a batch of completed flows to the pool and
// truncates the slice in place.
//
//perf:hot
func (n *Network) ReleaseFlows(fs *[]*Flow) {
	for i, f := range *fs {
		n.ReleaseFlow(f)
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
func (n *Network) advance() { n.integrate(false) }

// integrate is advance's one loop over the flows. With scan set — the
// completion alarm's pass — the same loop also counts the flows now due
// (at or below completionEpsilon) and returns the shortest remaining/rate
// among the others: the delay to the next completion while no rate
// changes. The other callers skip the division.
//
//perf:hot
func (n *Network) integrate(scan bool) (due int, nextIn float64) {
	now := n.env.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	nextIn = math.Inf(1)
	if dt <= 0 && !scan {
		return 0, nextIn
	}
	for _, f := range n.flows {
		if dt > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, dl := range f.path {
				dl.addBytes(moved)
			}
		}
		if !scan {
			continue
		}
		if f.remaining <= completionEpsilon {
			due++
		} else if f.rate > 0 {
			if t := f.remaining / f.rate; t < nextIn {
				nextIn = t
			}
		}
	}
	return due, nextIn
}

// recompute requests a max-min re-solve for the current instant. It queues
// one deferred flush (see recomputeQueued), so every change made at this
// instant is solved together by a single recomputeNow. It must be called
// with counters already advanced to the current instant.
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
	n.recomputeNow(noPassMin)
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
	n.recomputeNow(noPassMin)
}

// noPassMin tells recomputeNow that no integration pass measured the next
// completion at this instant.
const noPassMin = -1.0

// recomputeNow re-solves the max-min allocation and schedules the next
// completion event. It is the body of recomputeSync and of the deferred
// flush that recompute queues.
//
// The solve is component-local. Max-min fairness splits exactly over the
// connected components of the flow↔constraint graph, so only the
// components holding a touched constraint are re-solved; every other
// flow keeps the rate it already has. Within a re-solved component the
// rounds pick the same winners in the same order, with the same float
// operations, as a sweep over the whole active set would, so the rates
// are bit-identical to a global solve.
//
// A scan costs one pass per share level, not one per winner. Symmetric
// traffic — a collective's counter-rotating rings, equal-sized parallel
// legs — ties many constraints at the same fair share; one scan collects
// them all in scan order and the rounds freeze them in turn, falling back
// to a fresh scan only when a freeze could change which constraint the
// next round would pick.
//
// The bookkeeping is incremental too: constraints persist between calls,
// frozen and reached state are epoch stamps, and per-constraint unfrozen
// counts replace per-round rescans of every constraint's flow list.
//
// passMin, unless it is noPassMin, is the completion alarm's shortest
// remaining/rate over the flows that survive this recompute. When the
// flood marks nothing no rate changes, so it is the next completion and
// the scan for it is skipped.
//
//perf:hot
func (n *Network) recomputeNow(passMin float64) {
	if n.obs != nil {
		n.obs.Inc(n.obsRecompute)
	}
	n.epoch++
	if len(n.flows) == 0 {
		n.alarm.Stop()
		n.touched = n.touched[:0]
		if n.auditor != nil {
			n.auditor()
		}
		return
	}

	// Flood from the touched constraints, stamping every constraint and
	// flow of the components a change can reach. touched is the worklist.
	marked := 0
	work := n.touched
	for i := 0; i < len(work); i++ {
		st := work[i]
		if st.mark == n.epoch {
			continue
		}
		st.mark = n.epoch
		for _, cf := range st.flows {
			f := cf.f
			if f.compEpoch == n.epoch {
				continue
			}
			f.compEpoch = n.epoch
			marked++
			for _, fc := range f.cons {
				if fc.st.mark != n.epoch {
					work = append(work, fc.st)
				}
			}
		}
	}
	n.touched = work[:0]

	// Sweep out the constraints whose last flow has left, and refresh the
	// marked ones for this epoch, keeping cons order so equal-share ties
	// resolve as a whole-set sweep would.
	cons := n.cons[:0]
	live := n.liveCons[:0]
	for _, st := range n.cons {
		if len(st.flows) == 0 {
			st.active = false
			continue
		}
		cons = append(cons, st)
		if st.mark == n.epoch {
			st.residual = st.capacity()
			st.unfrozen = len(st.flows)
			live = append(live, st)
		}
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
	// assigns every marked flow's rate — no reset pass is needed first.
	//
	// One scan serves a whole share level: it collects every constraint
	// tied at the minimum, in live order, and the rounds freeze them one
	// after another. Each tie is the winner a fresh scan would pick next
	// as long as no freeze has pushed a share below the level, brought a
	// constraint outside the tie list onto it, or moved the next tie off
	// it; when one of those happens the batch stops and the next scan
	// resumes from the state the freezes left.
	frozen, rounds := 0, 0
	ties := n.ties
	for frozen < marked {
		level := math.Inf(1)
		ties = ties[:0]
		// Scan for the minimum share and its ties, compacting out
		// constraints whose flows all froze in earlier rounds as we go:
		// collective-heavy runs freeze most constraints in the first round
		// or two, so late scans cover a short tail instead of the whole
		// active set.
		w := 0
		for _, st := range live {
			if st.unfrozen == 0 {
				continue
			}
			live[w] = st
			w++
			share := st.residual / float64(st.unfrozen)
			if share < level {
				level = share
				ties = append(ties[:0], st)
			} else if share == level && len(ties) > 0 {
				ties = append(ties, st)
			}
		}
		live = live[:w]
		n.scanPasses++
		if len(ties) == 0 {
			break
		}
		for _, st := range ties {
			st.tie = n.scanPasses
		}
		for i, best := range ties {
			if best.unfrozen == 0 {
				continue // every flow froze with an earlier tie
			}
			if i > 0 && best.residual/float64(best.unfrozen) != level {
				n.earlyStops[stopTieMoved]++
				break
			}
			rounds++
			// Only a later tie's turn can go wrong, so the last tie's
			// freeze checks nothing.
			last, stop := i == len(ties)-1, -1
			for _, cf := range best.flows {
				f := cf.f
				if f.frozenEpoch == n.epoch {
					continue
				}
				f.frozenEpoch = n.epoch
				f.rate = level
				frozen++
				for _, fc := range f.cons {
					st := fc.st
					st.residual -= level
					if st.residual < 0 {
						st.residual = 0
					}
					st.unfrozen--
					if last || st == best || st.unfrozen == 0 {
						continue
					}
					if share := st.residual / float64(st.unfrozen); share < level {
						stop = stopBelow
					} else if share == level && st.tie != n.scanPasses {
						stop = stopNewTie
					}
				}
			}
			if stop >= 0 {
				n.earlyStops[stop]++
				break
			}
		}
	}
	n.ties = ties[:0]
	n.liveCons = live[:0]
	n.solvedFlows += marked
	n.solvedRounds += rounds

	// Schedule the next completion.
	nextIn := passMin
	if marked > 0 || passMin == noPassMin {
		nextIn = math.Inf(1)
		for _, f := range n.flows {
			if f.rate <= 0 {
				continue
			}
			if t := f.remaining / f.rate; t < nextIn {
				nextIn = t
			}
		}
	}
	if math.IsInf(nextIn, 1) {
		// No flow can make progress: a configuration error (zero-capacity
		// path). Surface loudly rather than hanging the simulation.
		//lint:allow hotalloc(panic path only: formats a configuration-error report)
		panic(fmt.Sprintf("fabric: %d flows with zero allocated rate", len(n.flows)))
	}
	n.armCompletionTimer(durationFromSeconds(nextIn, n.env.Now()))
	if n.auditor != nil {
		n.auditor()
	}
}

// armCompletionTimer sets the completion alarm d from now.
//
//perf:hot
func (n *Network) armCompletionTimer(d time.Duration) {
	now := n.env.Now()
	at := now + sim.Time(d)
	if pending, ok := n.alarm.Pending(); ok && n.armedAt == now && pending == at {
		// Same instant, same deadline: the pending alarm does this epoch's
		// work.
		return
	}
	n.armedAt = now
	n.alarm.Set(at)
}

// checkCompletions is the completion alarm's callback. One integration
// pass brings every flow up to now, counts the flows due and finds the
// next completion among the rest. The alarm fires up to 1 ns before a
// completion, because durationFromSeconds truncates, so about half its
// runs retire nothing; when no allocation change is pending either, such
// a run does exactly what recomputeNow would with an empty flood — count
// the recompute, open a new epoch, re-arm, audit — without its walks.
//
//perf:hot
func (n *Network) checkCompletions() {
	n.checks++
	due, nextIn := n.integrate(true)
	if due > 0 || len(n.touched) > 0 || n.recomputeQueued || math.IsInf(nextIn, 1) {
		n.finishCompleted(due, nextIn)
		return
	}
	n.emptyChecks++
	if n.obs != nil {
		n.obs.Inc(n.obsRecompute)
	}
	n.epoch++
	n.armCompletionTimer(durationFromSeconds(nextIn, n.env.Now()))
	if n.auditor != nil {
		n.auditor()
	}
}

// completionEpsilon absorbs float rounding when deciding a flow is done.
const completionEpsilon = 1e-3 // bytes

// finishCompleted retires the due flows checkCompletions counted, in
// active-set order, and re-solves with its pass minimum.
//
// Completion signals with the same path latency fire at the same instant,
// so each such group goes out as one batched event instead of one event
// per flow (a ring round retires every leg at once). The groups are
// chained as they open, and emitted in that order with their signals in
// retirement order, which are the event positions per-flow events would
// have had.
//
//perf:hot
func (n *Network) finishCompleted(due int, nextIn float64) {
	var first, last *signalBatch
	for i := 0; due > 0; {
		f := n.flows[i]
		if f.remaining > completionEpsilon {
			i++
			continue
		}
		n.removeFlow(f) // swaps the tail into slot i; revisit it
		due--
		b := first
		for b != nil && b.lat != f.latency {
			b = b.next
		}
		if b == nil {
			b = n.takeBatch()
			b.lat = f.latency
			if last == nil {
				first = b
			} else {
				last.next = b
			}
			last = b
		}
		b.sigs = append(b.sigs, &f.done)
	}
	for b := first; b != nil; {
		next := b.next
		b.next = nil
		if len(b.sigs) == 1 {
			// Sole flow at this latency: a plain signal event is cheaper.
			n.env.AfterSignal(b.lat, b.sigs[0])
			b.sigs[0] = nil
			b.sigs = b.sigs[:0]
			n.freeBatches = append(n.freeBatches, b)
		} else {
			n.env.After(b.lat, b.fn)
		}
		b = next
	}
	n.recomputeQueued = false
	n.recomputeNow(nextIn)
}

// signalBatch fires a group of completion signals that share one fire
// instant as a single event. The thunk is created once per pooled batch
// and recycles itself after firing.
type signalBatch struct {
	n    *Network
	sigs []*sim.Signal
	fn   func()
	// lat and next group a batch while finishCompleted fills it.
	lat  time.Duration
	next *signalBatch
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

// durationFromSeconds converts a delay from now into a timer duration,
// saturated so that now + d cannot overflow sim.Time. Without the cap, a
// delay beyond ~292 years (a large transfer capped at a few bytes per
// second) would wrap negative, the engine would clamp the timer to now, and
// the simulation would spin at one instant forever.
func durationFromSeconds(s float64, now sim.Time) time.Duration {
	if s < 0 {
		s = 0
	}
	limit := time.Duration(math.MaxInt64) - now
	if s*float64(time.Second) >= float64(limit) {
		return limit
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
	for _, st := range n.linkCons[2*id : 2*id+2] {
		if st != nil {
			n.touched = append(n.touched, st)
		}
	}
	n.recomputeSync()
}

// Traverses reports whether the flow's path crosses the link (either
// direction). The fault-aware invariant probes use it to assert no live
// flow rides a dead device's link.
//
//lint:allow deadapi(oracle hook: the collective legs oracle picks a link on a flow's path)
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
