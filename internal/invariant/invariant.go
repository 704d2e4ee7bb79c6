// Package invariant checks physics-style properties of composed-system
// simulations while they run. A Set attaches to the probe points the lower
// layers expose — the sim engine's event probe, the fabric allocator's
// auditor, the training engine's lifecycle probe — and records every
// violation it observes:
//
//   - event-time monotonicity: the virtual clock never runs backwards;
//   - bandwidth conservation: the max-min allocator never hands a link
//     direction more rate than its capacity, and never gives a flow a
//     negative rate or more than its own cap;
//   - byte conservation: per-link traffic counters only grow, and never
//     exceed the capacity integral over elapsed time;
//   - training-side sanity: epoch/checkpoint probe times are monotone,
//     reported utilizations are fractions, memory highwater marks respect
//     device capacity, and runs leave no allocations or flows behind.
//
// The random-scenario harness (internal/scengen) wires a Set into every
// run; any violation fails the sweep and the fuzz targets.
package invariant

import (
	"fmt"
	"math"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// Violation is one observed breach of an invariant.
type Violation struct {
	// Rule names the invariant, e.g. "fabric/link-capacity".
	Rule string
	// At is the virtual time of the observation.
	At time.Duration
	// Detail describes the breach with the observed values.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v: %s", v.Rule, v.At, v.Detail)
}

// Set accumulates violations from every probe it is attached to. It is not
// goroutine-safe across simulations; use one Set per composed system (the
// engine's strict handoff makes the in-simulation callbacks sequential).
type Set struct {
	violations []Violation
	// maxRecorded caps the slice so a systematically broken run cannot
	// allocate without bound; the count keeps the true total.
	count int

	// watcher state.
	lastEvent sim.Time
	lastTrain sim.Time
	linkSeen  map[fabric.LinkID][2]units.Bytes
	// Byte-conservation under capacity changes: the capacity integral is
	// accumulated audit window by audit window using the capacity that was
	// in effect during each window (capacity changes — fault degradations
	// and repairs — always trigger an audit at the instant they land, so a
	// window never spans a change).
	lastAudit   sim.Time
	linkCapInt  map[fabric.LinkID][2]float64
	linkPrevCap map[fabric.LinkID][2]float64

	// fleet watcher state (see orchestrator.go). Slot maps are keyed by
	// global fleet slot index: SlotRefs repeat across the chassis of a pod
	// fleet, so a ref alone no longer names a device.
	lastOrc          time.Duration
	orcJobs          map[int]*jobLife
	orcSlots         map[int]int
	orcDownSlots     map[int]bool
	orcDownHosts     map[int]bool
	orcDownPods      map[int]bool
	orcHostPod       []int // host index → pod (WatchFleet; nil = single pod)
	chassisAttached  map[chassisSlot]bool
	chassisAttachedN map[int]int // per-chassis attached count
	chassisAttaches  int
	chassisDetaches  int
	chassisReassigns int
}

// chassisSlot names one physical slot fleet-wide: the chassis's global
// index plus the slot's in-chassis ref.
type chassisSlot struct {
	chassis int
	ref     falcon.SlotRef
}

// maxRecorded bounds the retained violations per Set.
const maxRecorded = 64

// capacitySlack is the relative tolerance on rate/byte conservation checks,
// absorbing float rounding in the max-min progressive filling.
const capacitySlack = 1e-6

// New returns an empty Set.
func New() *Set {
	return &Set{
		lastEvent:   -1,
		lastTrain:   -1,
		linkSeen:    make(map[fabric.LinkID][2]units.Bytes),
		linkCapInt:  make(map[fabric.LinkID][2]float64),
		linkPrevCap: make(map[fabric.LinkID][2]float64),
	}
}

// Report records a violation. Exposed so higher layers (metamorphic checks
// in scengen) can funnel their findings through the same Set.
func (s *Set) Report(rule string, at time.Duration, format string, args ...any) {
	s.count++
	if len(s.violations) < maxRecorded {
		s.violations = append(s.violations, Violation{Rule: rule, At: at, Detail: fmt.Sprintf(format, args...)})
	}
}

// Err returns nil when the set is clean, otherwise an error summarizing
// the violations.
func (s *Set) Err() error {
	if s.count == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s):", s.count)
	for _, v := range s.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if s.count > len(s.violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", s.count-len(s.violations))
	}
	return fmt.Errorf("%s", b.String())
}

// WatchEnv attaches the event-time monotonicity check to the engine. The
// environment's previous event probe, if any, is replaced.
func (s *Set) WatchEnv(env *sim.Env) {
	env.SetEventProbe(func(at sim.Time) {
		if at < s.lastEvent {
			s.Report("sim/time-monotonic", at, "event at %v dispatched after %v", at, s.lastEvent)
		}
		s.lastEvent = at
	})
}

// WatchNetwork attaches the allocator audit to a fabric: after every
// recompute it checks per-direction capacity conservation, per-flow rate
// sanity, and the monotone growth and capacity integral of the link byte
// counters. The network's previous auditor, if any, is replaced.
func (s *Set) WatchNetwork(net *fabric.Network) {
	env := net.Env()
	net.SetAuditor(func() {
		now := env.Now()
		net.VisitAllocations(func(l *fabric.Link, forward bool, allocated, capacity float64) {
			// float64(…) rounds the product, so no architecture fuses it (FMA).
			if allocated > float64(capacity*(1+capacitySlack))+1 {
				dir := "A→B"
				if !forward {
					dir = "B→A"
				}
				s.Report("fabric/link-capacity", now,
					"link %d %s allocated %.1f B/s over capacity %.1f B/s", l.ID, dir, allocated, capacity)
			}
		})
		net.VisitFlows(func(f *fabric.Flow) {
			rate := float64(f.Rate())
			if rate < 0 || math.IsNaN(rate) {
				s.Report("fabric/flow-rate", now, "flow %d→%d rate %v", f.Src, f.Dst, f.Rate())
			}
			// float64(…) rounds the product, so no architecture fuses it (FMA).
			if rcap := float64(f.MaxRate()); rcap > 0 && rate > float64(rcap*(1+capacitySlack))+1 {
				s.Report("fabric/flow-rate-cap", now,
					"flow %d→%d rate %.1f B/s over cap %.1f B/s", f.Src, f.Dst, rate, rcap)
			}
			if f.Remaining() < 0 {
				s.Report("fabric/flow-remaining", now, "flow %d→%d remaining %v", f.Src, f.Dst, f.Remaining())
			}
		})
		// Capacity integrals, accumulated per audit window. Before the
		// first audit no flow has ever started (every flow change audits),
		// so initializing a link's in-effect capacity lazily is exact.
		dt := (now - s.lastAudit).Seconds()
		s.lastAudit = now
		for _, l := range net.Links() {
			ab, ba := l.BytesAtoB(), l.BytesBtoA()
			prev := s.linkSeen[l.ID]
			if ab < prev[0] || ba < prev[1] {
				s.Report("fabric/bytes-monotonic", now,
					"link %d counters went backwards: (%v,%v) after (%v,%v)", l.ID, ab, ba, prev[0], prev[1])
			}
			s.linkSeen[l.ID] = [2]units.Bytes{ab, ba}

			cap := s.linkPrevCap[l.ID] // capacity in effect during the window
			if _, seen := s.linkPrevCap[l.ID]; !seen {
				cap = [2]float64{float64(l.CapAtoB), float64(l.CapBtoA)}
			}
			integ := s.linkCapInt[l.ID]
			// float64(…) rounds the product, so no architecture fuses it (FMA).
			integ[0] += float64(cap[0] * dt)
			integ[1] += float64(cap[1] * dt)
			s.linkCapInt[l.ID] = integ
			s.linkPrevCap[l.ID] = [2]float64{float64(l.CapAtoB), float64(l.CapBtoA)}

			// float64(…) rounds the product, so no architecture fuses it (FMA).
			if maxAB := float64(integ[0]*(1+capacitySlack)) + 1; float64(ab) > maxAB {
				s.Report("fabric/bytes-conserved", now,
					"link %d moved %v A→B, over the %v capacity integral", l.ID, ab, units.Bytes(maxAB))
			}
			if maxBA := float64(integ[1]*(1+capacitySlack)) + 1; float64(ba) > maxBA {
				s.Report("fabric/bytes-conserved", now,
					"link %d moved %v B→A, over the %v capacity integral", l.ID, ba, units.Bytes(maxBA))
			}
		}
	})
}

// TrainProbe returns a probe function for train.Options.Probe that checks
// the training lifecycle events arrive in nondecreasing virtual time.
func (s *Set) TrainProbe() func(event string, at time.Duration) {
	return func(event string, at time.Duration) {
		if at < 0 {
			s.Report("train/time-positive", at, "probe %q at negative time %v", event, at)
		}
		if at < s.lastTrain {
			s.Report("train/time-monotonic", at, "probe %q at %v after %v", event, at, s.lastTrain)
		}
		s.lastTrain = at
	}
}

// Watch attaches the full in-simulation probe set to a composed system.
func (s *Set) Watch(sys *cluster.System) {
	s.WatchEnv(sys.Env)
	s.WatchNetwork(sys.Net)
}

// utilSlack tolerates float rounding in sampled utilization fractions.
const utilSlack = 1e-9

// CheckResult runs the post-run structural checks on a completed training
// run: positive times, monotone epoch accounting, utilization fractions in
// [0,1], memory high-water marks within device capacity, and no leaked
// allocations or in-flight flows on the system.
func (s *Set) CheckResult(sys *cluster.System, res *train.Result) {
	at := res.TotalTime
	if res.TotalTime <= 0 {
		s.Report("train/total-time", at, "nonpositive total time %v", res.TotalTime)
	}
	if res.AvgIter <= 0 {
		s.Report("train/avg-iter", at, "nonpositive avg iteration %v", res.AvgIter)
	}
	if res.Iters <= 0 {
		s.Report("train/iters", at, "nonpositive iteration count %d", res.Iters)
	}
	if len(res.EpochTimes) != res.Epochs {
		s.Report("train/epoch-count", at, "%d epoch times for %d epochs", len(res.EpochTimes), res.Epochs)
	}
	var epochSum time.Duration
	for i, e := range res.EpochTimes {
		if e <= 0 {
			s.Report("train/epoch-time", at, "epoch %d nonpositive duration %v", i+1, e)
		}
		epochSum += e
	}
	// Rank 0 records epoch boundaries before the final join, so their sum
	// never exceeds the run (the closing join adds a final sliver).
	if epochSum > res.TotalTime+time.Microsecond {
		s.Report("train/epoch-sum", at, "epoch times sum %v over total %v", epochSum, res.TotalTime)
	}
	fractions := []struct {
		name string
		u    float64
	}{
		{"gpu-util", res.AvgGPUUtil},
		{"gpu-mem-util", res.AvgGPUMemUtil},
		{"cpu-util", res.AvgCPUUtil},
		{"host-mem-util", res.AvgHostMemUtil},
		{"mem-access", res.MemAccessFrac},
	}
	for _, fr := range fractions {
		if fr.u < 0 || fr.u > 1+utilSlack || math.IsNaN(fr.u) {
			s.Report("train/util-fraction", at, "%s %v outside [0,1]", fr.name, fr.u)
		}
	}
	if res.FalconPCIeGBps < 0 {
		s.Report("train/falcon-traffic", at, "negative falcon PCIe rate %v", res.FalconPCIeGBps)
	}
	if len(sys.FalconGPUPortLinks) == 0 && res.FalconPCIeGBps != 0 {
		s.Report("train/falcon-traffic", at,
			"%v GB/s of falcon traffic with no falcon GPUs attached", res.FalconPCIeGBps)
	}
	var maxUsable units.Bytes
	for _, g := range sys.GPUs {
		if g.Usable() > maxUsable {
			maxUsable = g.Usable()
		}
		if g.Used() != 0 {
			s.Report("gpu/memory-leak", at, "%s still holds %v after the run", g.Name(), g.Used())
		}
	}
	if res.PeakGPUMem <= 0 || res.PeakGPUMem > maxUsable {
		s.Report("gpu/peak-memory", at, "peak GPU memory %v outside (0,%v]", res.PeakGPUMem, maxUsable)
	}
	if n := sys.Net.ActiveFlows(); n != 0 {
		s.Report("fabric/flows-drained", at, "%d flows still active after the run", n)
	}
}
