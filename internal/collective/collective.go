// Package collective is an NCCL-style multi-GPU communication library for
// the simulated fabric: topology-aware ring construction, ring all-reduce,
// reduce-scatter, all-gather and broadcast, with dual counter-rotating
// channels (as NCCL builds on DGX-class machines) and per-protocol
// efficiency factors.
//
// Collectives both *move simulated time* (their flows contend on the fabric,
// which is where the paper's PCIe-switching overhead comes from) and, when
// used through the *Values variants, actually compute the reduction, so the
// algorithms are testable for correctness, not just for timing.
package collective

import (
	"fmt"
	"strconv"

	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/nvlink"
	"composable/internal/sim"
	"composable/internal/units"
)

// Protocol efficiency: the fraction of path bandwidth a NCCL-style ring
// sustains, beyond raw link efficiency (already in the link calibration).
// These two constants are calibrated jointly against Figure 11 (BERT-large
// ≈ 2× slower on falconGPUs) and Figure 12 (≈ 76 GB/s falcon PCIe traffic
// for BERT-large): protocol handshakes and chunk scheduling cost more on
// PCIe rings (no dedicated copy engines per peer, relaxed-ordering stalls)
// than on NVLink rings.
const (
	NVLinkRingEfficiency = 0.90
	PCIeRingEfficiency   = 0.55
)

// DefaultChannels is the number of counter-rotating rings a communicator
// uses. Two rings in opposite directions use both directions of every
// full-duplex edge, mirroring NCCL's channel pairs. See the A2 ablation
// experiment for the cost of running a single ring.
const DefaultChannels = 2

// Communicator coordinates collectives over a fixed group of GPUs.
// All ranks must join each operation; operations execute in join order
// (NCCL stream semantics).
type Communicator struct {
	net      *fabric.Network
	env      *sim.Env
	gpus     []*gpu.Device
	ring     []int // ring order as indices into gpus
	eff      float64
	channels int
	queue    []*op // FIFO of operations being assembled/executed
	// free holds completed ops that gc dropped from the queue, taken by
	// join before it allocates. A recycled op keeps its embedded stepper,
	// its flows buffer and the waiter backing arrays of done and wg, so
	// a warm communicator's async collectives allocate nothing.
	free []*op
	// fanSpecs is scratch for armFanTransfer (ops execute serially, so
	// one buffer per communicator suffices).
	fanSpecs []fabric.TransferSpec
	// ringChans holds one persistent goroutine-free ring driver per
	// channel, reused across every op on this communicator (ops execute
	// serially — NCCL stream semantics — so reuse is safe). Each round of
	// each channel then costs zero context switches: the stepper's
	// continuation runs inline in the event dispatcher.
	ringChans []*ringChannel
	// execWG is the Exec variants' wait for the ring channels, reused
	// across ops like the channels themselves.
	execWG sim.WaitGroup
}

// ringChannel drives one counter-rotating ring channel as a stepper state
// machine: each step releases the previous round's flows, starts the next
// round's, and re-arms on their completion, padded by the protocol
// overhead. The event positions are identical to the goroutine-per-channel
// formulation, so execution order — and the simulation's determinism — is
// unchanged; only the context switches are gone.
type ringChannel struct {
	c       *Communicator
	sp      *sim.Proc
	reverse bool
	// legs is the round's transfers, one per rank to its ring neighbour,
	// prepared on the channel's first round and re-armed on every round
	// after it.
	legs   *fabric.LegSet
	chunk  units.Bytes
	r      int
	rounds int
	wg     *sim.WaitGroup
}

// start primes the channel for one op and schedules its first step at the
// current instant — the same event a per-op process spawn would occupy.
func (rc *ringChannel) start(chunk units.Bytes, rounds int, wg *sim.WaitGroup) {
	rc.chunk, rc.rounds, rc.r, rc.wg = chunk, rounds, 0, wg
	rc.c.env.Ready(rc.sp)
}

// step advances the channel: release the finished round's flows, start the
// next round, re-arm on its completion; when the rounds are done, report
// to the op's wait group.
//
//perf:hot
func (rc *ringChannel) step() {
	c := rc.c
	if rc.legs == nil {
		rc.prepare()
	}
	rc.legs.Release()
	for rc.r < rc.rounds {
		rc.r++
		// The pad charges the round's protocol overhead beyond payload
		// movement in the same event as the completion wake.
		armed, err := rc.legs.Arm(rc.sp, rc.chunk, 1/c.eff-1)
		if err != nil {
			panic(err)
		}
		if armed {
			return
		}
		rc.legs.Release() // every leg finished instantly
	}
	rc.wg.Done(c.env)
}

// prepare builds the channel's leg set: rank i of the ring sends to its
// successor, or to its predecessor on a reverse channel.
func (rc *ringChannel) prepare() {
	c := rc.c
	n := len(c.ring)
	rc.legs = c.net.NewLegSet(n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		if rc.reverse {
			next = (i + n - 1) % n
		}
		rc.legs.Add(c.gpus[c.ring[i]].Node, c.gpus[c.ring[next]].Node)
	}
}

// SetChannels overrides the counter-rotating ring count (ablation knob;
// must be >= 1). Channels beyond the first pair re-use ring directions.
func (c *Communicator) SetChannels(n int) {
	if n < 1 {
		n = 1
	}
	c.channels = n
	c.buildChannels()
}

// buildChannels constructs the per-channel ring drivers for the current
// channel count.
func (c *Communicator) buildChannels() {
	c.ringChans = make([]*ringChannel, c.channels)
	for ch := range c.ringChans {
		rc := &ringChannel{c: c, reverse: ch%2 == 1}
		rc.sp = c.env.NewStepper("ring-ch"+strconv.Itoa(ch), rc.step)
		c.ringChans[ch] = rc
	}
}

// opProcName maps an op kind to its (constant) process name; every op of a
// kind shares one name, so launches never format strings.
func opProcName(kind string) string {
	switch kind {
	case "allreduce":
		return "nccl-allreduce"
	case "reducescatter":
		return "nccl-reducescatter"
	case "allgather":
		return "nccl-allgather"
	case "broadcast":
		return "nccl-broadcast"
	case "reduceroot":
		return "nccl-reduceroot"
	}
	return "nccl-" + kind
}

// op is one in-flight collective, driven as a stepper state machine: wait
// for the predecessor, run the data movement, fire done. The stages sit at
// the exact event positions the process-per-op formulation used, minus its
// context switches. Completed ops are recycled through Communicator.free.
type op struct {
	kind    string
	bytes   units.Bytes
	root    int
	ranks   uint64 // bitmask of joined ranks (groups are ≤ maxRanks)
	joined  int
	started bool
	done    sim.Signal
	prev    *op
	// gen counts the op's recycles; a Handle taken before the last one
	// names a use that has completed.
	gen uint64

	c      *Communicator
	proc   sim.Proc // embedded stepper driven via Step (no extra allocs)
	moving bool     // data movement started; next step completes the op
	wg     sim.WaitGroup
	flows  []*fabric.Flow
}

// maxRanks bounds a communicator's group: join marks each rank's arrival
// in a uint64 bitmask.
const maxRanks = 64

// Handle names one use of a collective op, as returned by the async Start
// forms. Ops are recycled once they complete and their successor no longer
// needs them, so a handle also carries the op's generation: a handle whose
// op has since been reused names a use that completed, and reports fired.
// The zero Handle names no op and is fired too.
type Handle struct {
	o   *op
	gen uint64
}

// live reports whether h's op still serves the use h was taken on.
//
//perf:hot
func (h Handle) live() bool { return h.o != nil && h.o.gen == h.gen }

// Arm registers stepper sp to step when the collective completes and
// returns true; if it already completed it registers nothing and returns
// false — the handle form of sim.Signal.Arm.
//
//perf:hot
func (h Handle) Arm(sp *sim.Proc) bool { return h.live() && h.o.done.Arm(sp) }

// Wait blocks the process until the collective completes.
//
//perf:hot
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (h Handle) Wait(p *sim.Proc) {
	if h.Arm(p) {
		p.Park()
	}
}

// New builds a communicator with a topology-aware ring: host-local GPUs
// are ordered along the NVLink cube-mesh Hamiltonian cycle, Falcon GPUs
// follow in slot order, so a hybrid ring crosses the host boundary exactly
// twice — matching how NCCL's graph search places PCIe hops.
func New(net *fabric.Network, gpus []*gpu.Device) (*Communicator, error) {
	if len(gpus) < 2 {
		return nil, fmt.Errorf("collective: need at least 2 GPUs, have %d", len(gpus))
	}
	var locals, falcons []int
	for i, g := range gpus {
		if g.Local {
			locals = append(locals, i)
		} else {
			falcons = append(falcons, i)
		}
	}
	ring := make([]int, 0, len(gpus))
	for _, pos := range nvlink.RingOrder(len(locals)) {
		ring = append(ring, locals[pos])
	}
	ring = append(ring, falcons...)
	return NewWithRing(net, gpus, ring)
}

// NewWithRing builds a communicator with an explicit ring order (indices
// into gpus, each exactly once). Used by the ring-topology ablation; New
// is the production constructor.
func NewWithRing(net *fabric.Network, gpus []*gpu.Device, ring []int) (*Communicator, error) {
	if len(gpus) > maxRanks {
		return nil, fmt.Errorf("collective: %d GPUs exceed the %d-rank group limit", len(gpus), maxRanks)
	}
	if len(ring) != len(gpus) {
		return nil, fmt.Errorf("collective: ring has %d entries for %d GPUs", len(ring), len(gpus))
	}
	seen := make([]bool, len(gpus))
	for _, r := range ring {
		if r < 0 || r >= len(gpus) || seen[r] {
			return nil, fmt.Errorf("collective: invalid ring %v", ring)
		}
		seen[r] = true
	}

	c := &Communicator{net: net, env: net.Env(), gpus: gpus, ring: ring, channels: DefaultChannels}
	c.buildChannels()
	c.eff = NVLinkRingEfficiency
	for i := range ring {
		a := gpus[ring[i]].Node
		b := gpus[ring[(i+1)%len(ring)]].Node
		proto, err := net.PathProtocol(a, b)
		if err != nil {
			return nil, fmt.Errorf("collective: ring edge unreachable: %w", err)
		}
		if proto != nvlink.Protocol {
			c.eff = PCIeRingEfficiency
		}
	}
	return c, nil
}

// Ring returns the ring order (indices into the GPU group).
func (c *Communicator) Ring() []int { return append([]int(nil), c.ring...) }

// RingEfficiency returns the protocol efficiency chosen for this group.
func (c *Communicator) RingEfficiency() float64 { return c.eff }

// join registers a rank's arrival at its next op of the given kind,
// creating the op if this rank is first. When the last rank arrives,
// execution starts (chained after the previous op, preserving NCCL's
// stream-order semantics). Each rank must issue collectives in the same
// order — the standard NCCL contract.
//
//perf:hot
func (c *Communicator) join(kind string, bytes units.Bytes, root, rank int) *op {
	if rank < 0 || rank >= len(c.gpus) {
		//lint:allow hotalloc(panic path only: formats a caller-error report)
		panic(fmt.Sprintf("collective: rank %d out of range", rank))
	}
	// Find the oldest op of this kind this rank has not joined yet.
	var cur *op
	bit := uint64(1) << uint(rank)
	for _, o := range c.queue {
		if !o.started && o.kind == kind && o.bytes == bytes && o.root == root && o.ranks&bit == 0 {
			cur = o
			break
		}
	}
	if cur == nil {
		var prev *op
		if len(c.queue) > 0 {
			prev = c.queue[len(c.queue)-1]
		}
		cur = c.takeOp()
		cur.kind, cur.bytes, cur.root, cur.prev = kind, bytes, root, prev
		c.queue = append(c.queue, cur)
	}
	cur.ranks |= bit
	cur.joined++
	if cur.joined == len(c.gpus) {
		cur.started = true
		c.launch(cur)
	}
	return cur
}

// takeOp returns a recycled op from the free list, or a new one when the
// list is empty.
//
//perf:hot
func (c *Communicator) takeOp() *op {
	if last := len(c.free) - 1; last >= 0 {
		o := c.free[last]
		c.free[last] = nil
		c.free = c.free[:last]
		return o
	}
	return &op{}
}

// launch schedules the op's stepper, which runs its data movement after
// the predecessor completes.
//
//perf:hot
func (c *Communicator) launch(o *op) {
	o.c = c
	c.env.InitStepperFor(&o.proc, opProcName(o.kind), o)
	c.env.Ready(&o.proc)
}

// step advances the op through its three stages — predecessor wait, data
// movement, completion — re-arming on the event that ends each stage.
//
//perf:hot
func (o *op) Step() {
	c := o.c
	if !o.moving {
		if o.prev != nil && o.prev.done.Arm(&o.proc) {
			return
		}
		o.prev = nil
		o.moving = true
		switch o.kind {
		case "allreduce":
			if o.armRingPasses(2) { // reduce-scatter + all-gather
				return
			}
		case "reducescatter", "allgather":
			if o.armRingPasses(1) {
				return
			}
		case "broadcast":
			if o.armFanTransfer(true) {
				return
			}
		case "reduceroot":
			if o.armFanTransfer(false) {
				return
			}
		default:
			panic("collective: unknown op " + o.kind)
		}
	}
	if len(o.flows) > 0 {
		c.net.ReleaseFlows(&o.flows)
	}
	c.gc()
	o.done.Fire(c.env)
}

// armRingPasses starts `passes` × (N−1) ring rounds over all channels and
// arms the op's stepper on their joint completion. Reports false if the
// channels finished inline (degenerate rings only).
//
//perf:hot
func (o *op) armRingPasses(passes int) bool {
	c := o.c
	n := len(c.ring)
	rounds := passes * (n - 1)
	chunk := units.Bytes(float64(o.bytes) / float64(n) / float64(c.channels))
	if chunk <= 0 {
		chunk = 1
	}
	o.wg.Add(c.channels)
	for ch := 0; ch < c.channels; ch++ {
		c.ringChans[ch].start(chunk, rounds, &o.wg)
	}
	return o.wg.Arm(&o.proc)
}

// armFanTransfer starts the root→all (broadcast) or all→root (reduce)
// flows and arms the op's stepper on their completion.
//
//perf:hot
func (o *op) armFanTransfer(fromRoot bool) bool {
	c := o.c
	specs := c.fanSpecs[:0]
	for i := range c.gpus {
		if i == o.root {
			continue
		}
		if fromRoot {
			specs = append(specs, fabric.TransferSpec{
				Src: c.gpus[o.root].Node, Dst: c.gpus[i].Node, Size: o.bytes,
			})
		} else {
			specs = append(specs, fabric.TransferSpec{
				Src: c.gpus[i].Node, Dst: c.gpus[o.root].Node, Size: o.bytes,
			})
		}
	}
	c.fanSpecs = specs
	armed, err := c.net.ArmParallelTransfer(&o.proc, specs, 1/c.eff-1, &o.flows)
	if err != nil {
		panic(err)
	}
	return armed
}

// gc drops completed ops from the head of the queue, copying the tail
// down so the queue's backing array keeps its capacity, and recycles them.
// A dropped op has started and fired done, and its successor — the only op
// that points at it — has passed its prev wait, since ops run one at a
// time in queue order and gc runs as a later op completes. Recycling bumps
// the op's generation, so every Handle on the finished use reports fired
// from then on.
//
//perf:hot
func (c *Communicator) gc() {
	drop := 0
	for drop < len(c.queue) && c.queue[drop].started && c.queue[drop].done.Fired() {
		o := c.queue[drop]
		o.gen++
		o.ranks, o.joined, o.started, o.moving = 0, 0, false, false
		o.done.Reset()
		c.free = append(c.free, o)
		drop++
	}
	if drop == 0 {
		return
	}
	m := copy(c.queue, c.queue[drop:])
	for i := m; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:m]
}

// runRingPasses executes `passes` × (N−1) ring rounds over both channels;
// each channel moves half the payload in chunks of size/N per rank per
// round. A pass of 1 is a reduce-scatter or all-gather; 2 is a full
// all-reduce. Per-round protocol overhead is applied as extra time (the
// efficiency factor), not extra counted bytes: chassis port counters see
// payload, matching how the paper measured Figure 12.
func (c *Communicator) runRingPasses(p *sim.Proc, size units.Bytes, passes int) {
	n := len(c.ring)
	rounds := passes * (n - 1)
	chunk := units.Bytes(float64(size) / float64(n) / float64(c.channels))
	if chunk <= 0 {
		chunk = 1
	}
	c.execWG.Add(c.channels)
	for ch := 0; ch < c.channels; ch++ {
		c.ringChans[ch].start(chunk, rounds, &c.execWG)
	}
	c.execWG.Wait(p)
}

// StartAllReduce joins rank to its next all-reduce of size bytes and
// returns a handle on its completion, letting the caller overlap the
// collective with further compute (DDP bucket overlap).
func (c *Communicator) StartAllReduce(rank int, size units.Bytes) Handle {
	return c.join("allreduce", size, 0, rank).handle()
}

// StartReduceScatter joins rank to a reduce-scatter (ZeRO gradient
// sharding).
func (c *Communicator) StartReduceScatter(rank int, size units.Bytes) Handle {
	return c.join("reducescatter", size, 0, rank).handle()
}

// StartAllGather joins rank to an all-gather (ZeRO parameter reassembly).
func (c *Communicator) StartAllGather(rank int, size units.Bytes) Handle {
	return c.join("allgather", size, 0, rank).handle()
}

// handle names the op's current use.
func (o *op) handle() Handle { return Handle{o, o.gen} }

// Broadcast joins rank to a root→all broadcast and blocks.
//
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (c *Communicator) Broadcast(p *sim.Proc, rank, root int, size units.Bytes) {
	if c.ArmBroadcast(p, rank, root, size) {
		p.Park()
	}
}

// ArmBroadcast is Broadcast for steppers: it joins rank and arms sp on the
// broadcast's completion, returning false (unarmed) only if it has already
// completed.
func (c *Communicator) ArmBroadcast(sp *sim.Proc, rank, root int, size units.Bytes) bool {
	return c.join("broadcast", size, root, rank).done.Arm(sp)
}

// ReduceToRoot joins rank to an all→root gradient reduction and blocks.
//
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (c *Communicator) ReduceToRoot(p *sim.Proc, rank, root int, size units.Bytes) {
	if c.ArmReduceToRoot(p, rank, root, size) {
		p.Park()
	}
}

// ArmReduceToRoot is ReduceToRoot for steppers, with ArmBroadcast's
// protocol.
func (c *Communicator) ArmReduceToRoot(sp *sim.Proc, rank, root int, size units.Bytes) bool {
	return c.join("reduceroot", size, root, rank).done.Arm(sp)
}

// ExecAllReduce performs one all-reduce immediately on behalf of all
// ranks, blocking a single driver process — the shape microbenchmarks and
// examples want, where no per-rank processes exist.
func (c *Communicator) ExecAllReduce(p *sim.Proc, size units.Bytes) {
	c.runRingPasses(p, size, 2)
}
