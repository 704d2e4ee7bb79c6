// Package faults is the failure engine of the composable test bed: a
// deterministic, seeded schedule of failure and repair events played into
// a running simulation. The paper's pitch — hot-plugged chassis, shared
// Falcon links, re-cabled GPUs — creates failure surfaces a fixed server
// never has, and every one of them maps to an event kind here:
//
//   - KindSlotLink / KindHostLink: a fabric link degrades (capacity × a
//     factor) or suffers an outage (factor 0, clamped to a floor so frozen
//     flows stay integrable and resume on repair);
//   - KindGPU: a chassis GPU dies in its slot and is hot-unplugged from
//     the control plane;
//   - KindDrawer: a whole drawer flaps — every slot in it vanishes at once
//     and returns on re-plug;
//   - KindHost: a host machine crashes, taking its running jobs with it.
//
// The package only describes and schedules faults; what a fault *does* is
// supplied by the layer that owns the hardware, as the one handler an
// Injector hands every applied Record to. The fleet orchestrator's
// handler kills and reschedules jobs; single-system experiments pass one
// that scales a training run's link. Plans are
// plain data derived from a seed, so a faulty run is exactly as
// reproducible as a fault-free one — the property the fault scenario
// sweep pins byte for byte.
package faults

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"composable/internal/obs"
	"composable/internal/sim"
)

// Kind classifies a fault event.
type Kind string

// Fault kinds.
const (
	// KindSlotLink degrades the fabric link of one chassis GPU slot
	// (Target = slot index) to Factor × its healthy capacity.
	KindSlotLink Kind = "slot-link"
	// KindHostLink degrades a host's adapter link (Target = host index),
	// the host's whole pipe into the chassis.
	KindHostLink Kind = "host-link"
	// KindGPU fails the device in one chassis slot (Target = slot index).
	KindGPU Kind = "gpu"
	// KindDrawer hot-unplugs a whole drawer (Target = drawer index; in a
	// pod fleet the index is fleet-global, chassis × falcon.NumDrawers +
	// local drawer).
	KindDrawer Kind = "drawer"
	// KindHost crashes a host machine (Target = host index).
	KindHost Kind = "host"
	// KindSpineLink degrades a pod's leaf ↔ spine uplink (Target = pod
	// index) to Factor × its healthy capacity: cross-pod traffic starves
	// while intra-pod traffic is untouched. Pod-shaped fleets only.
	KindSpineLink Kind = "spine-link"
	// KindPod fails a whole pod (Target = pod index): every host and every
	// chassis GPU slot in it goes down at once — the blast radius of a pod
	// power or leaf-switch loss. Pod-shaped fleets only.
	KindPod Kind = "pod"
)

// OutageFloor is the capacity fraction a link outage leaves behind: flows
// over an "out" link are effectively frozen (they crawl at the floor rate)
// but stay integrable, so they thaw when the repair restores capacity
// instead of wedging the allocator.
const OutageFloor = 1e-4

// Event is one scheduled fault.
type Event struct {
	// At is the sim time the fault strikes.
	At time.Duration
	// Kind selects the failure surface; Target's meaning depends on it
	// (slot, host or drawer index).
	Kind   Kind
	Target int
	// Factor is the remaining capacity fraction for the link kinds
	// (0 = outage, clamped to OutageFloor; ignored for device kinds).
	Factor float64
	// Repair, when positive, schedules recovery that long after the
	// fault; zero means the fault is permanent.
	Repair time.Duration
}

// Permanent reports whether the event never repairs.
func (e Event) Permanent() bool { return e.Repair <= 0 }

// String renders the event for logs and golden files. The renderer is
// manual strconv/append work — no fmt — because fault reporting sits on
// the recovery hot path; appendEventString pins the exact bytes.
func (e Event) String() string {
	var buf [96]byte
	b := append(buf[:0], e.At.String()...)
	b = append(b, ' ')
	b = appendKindTarget(b, e.Kind, e.Target)
	if e.Kind.linkKind() {
		b = appendFactor(b, e.Factor)
	}
	if e.Permanent() {
		b = append(b, " permanent"...)
	} else {
		b = append(b, " repair+"...)
		b = append(b, e.Repair.String()...)
	}
	return string(b)
}

// linkKind reports whether the kind degrades a link (carries a Factor).
func (k Kind) linkKind() bool {
	return k == KindSlotLink || k == KindHostLink || k == KindSpineLink
}

// appendKindTarget renders "kind[target]".
func appendKindTarget(b []byte, k Kind, target int) []byte {
	b = append(b, k...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(target), 10)
	b = append(b, ']')
	return b
}

// appendFactor renders " x<factor>" with fmt's %.4g semantics (4
// significant digits, shortest form), via strconv.
func appendFactor(b []byte, f float64) []byte {
	b = append(b, " x"...)
	return strconv.AppendFloat(b, f, 'g', 4, 64)
}

// Plan is a deterministic fault schedule.
type Plan struct {
	// Seed records provenance; it does not affect execution.
	Seed   int64
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Bounds describes the composed system a plan targets, so generation and
// sanitization can keep every event on real hardware.
type Bounds struct {
	Slots          int // chassis GPU slots (fleet-wide)
	SlotsPerDrawer int // slot→drawer mapping (0 = single drawer)
	Hosts          int
	// Drawers, when positive, is the explicit fleet-global drawer index
	// space (pod fleets stride drawer indices per chassis, so the count is
	// not derivable from Slots alone). Zero keeps the single-chassis
	// derivation from Slots/SlotsPerDrawer.
	Drawers int
	// Pods, when positive, enables the pod-scoped kinds (KindPod,
	// KindSpineLink) with targets in [0, Pods). Zero means no pod tier:
	// pod-scoped events are remapped onto device faults.
	Pods int
	// Horizon bounds fault times; repairs may land past it.
	Horizon time.Duration
	// MaxPermanentGPUs caps how many GPUs may fail without repair, so a
	// stream's largest job always has surviving capacity (0 = none
	// permanent: every device fault must heal).
	MaxPermanentGPUs int
}

// DefaultMaxEvents bounds generated plans.
const DefaultMaxEvents = 8

func (b Bounds) drawers() int {
	if b.Drawers > 0 {
		return b.Drawers
	}
	if b.SlotsPerDrawer <= 0 || b.Slots <= b.SlotsPerDrawer {
		return 1
	}
	return (b.Slots + b.SlotsPerDrawer - 1) / b.SlotsPerDrawer
}

func (b Bounds) pods() int {
	if b.Pods < 1 {
		return 1
	}
	return b.Pods
}

func (b Bounds) drawerOf(slot int) int {
	if b.SlotsPerDrawer <= 0 {
		return 0
	}
	return slot / b.SlotsPerDrawer
}

// minFaultTime keeps faults off the t=0 instant, where composition and
// arrival bookkeeping run.
const minFaultTime = time.Millisecond

// FromSeed derives a fault plan from a seed within bounds. Equal seeds
// yield equal plans; the mapping is fixed (extend ranges rather than
// reorder draws). The generated plan is already sanitized.
func FromSeed(seed int64, b Bounds) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	n := 1 + rng.Intn(DefaultMaxEvents)
	for i := 0; i < n; i++ {
		ev := Event{
			At: minFaultTime + time.Duration(rng.Int63n(int64(horizon(b)))),
		}
		// Pod-shaped bounds widen the kind range with the pod-scoped
		// kinds; non-pod bounds keep the original six-way draw so existing
		// seeds reproduce their plans byte for byte.
		kinds := 6
		if b.Pods > 0 {
			kinds = 8
		}
		switch rng.Intn(kinds) {
		case 0, 1: // link faults are the most common failure in the field
			ev.Kind = KindSlotLink
			ev.Target = rng.Intn(max(1, b.Slots))
			ev.Factor = [...]float64{0, 0.1, 0.25, 0.5}[rng.Intn(4)]
		case 2:
			ev.Kind = KindHostLink
			ev.Target = rng.Intn(max(1, b.Hosts))
			ev.Factor = [...]float64{0.1, 0.25, 0.5}[rng.Intn(3)]
		case 3, 4:
			ev.Kind = KindGPU
			ev.Target = rng.Intn(max(1, b.Slots))
		case 5:
			if rng.Intn(2) == 0 {
				ev.Kind = KindDrawer
				ev.Target = rng.Intn(b.drawers())
			} else {
				ev.Kind = KindHost
				ev.Target = rng.Intn(max(1, b.Hosts))
			}
		case 6:
			ev.Kind = KindSpineLink
			ev.Target = rng.Intn(b.pods())
			ev.Factor = [...]float64{0, 0.1, 0.25, 0.5}[rng.Intn(4)]
		case 7:
			ev.Kind = KindPod
			ev.Target = rng.Intn(b.pods())
		}
		// Most faults heal; a minority of device faults are permanent
		// (Sanitize enforces the survivor budget).
		if ev.Kind == KindGPU && rng.Intn(4) == 0 {
			ev.Repair = 0
		} else {
			ev.Repair = time.Duration(500+rng.Intn(8000)) * time.Millisecond
		}
		p.Events = append(p.Events, ev)
	}
	return Sanitize(p, b)
}

// PlanMTBF derives a plan whose fault arrivals approximate a mean time
// between failures over the horizon: the operator-facing knob ("my GPUs
// die about every N minutes") the advisor's fault profile uses. The
// schedule is deterministic in (seed, mtbf, bounds).
func PlanMTBF(seed int64, mtbf time.Duration, b Bounds) Plan {
	if mtbf <= 0 {
		return Plan{Seed: seed}
	}
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	at := time.Duration(0)
	for {
		// Exponential inter-arrival with mean mtbf, deterministic draw.
		gap := time.Duration(float64(mtbf) * rng.ExpFloat64())
		if gap < minFaultTime {
			gap = minFaultTime
		}
		at += gap
		if at > horizon(b) || len(p.Events) >= 4*DefaultMaxEvents {
			break
		}
		ev := Event{At: at, Repair: time.Duration(500+rng.Intn(4000)) * time.Millisecond}
		switch rng.Intn(4) {
		case 0:
			ev.Kind = KindSlotLink
			ev.Target = rng.Intn(max(1, b.Slots))
			ev.Factor = [...]float64{0, 0.1, 0.25}[rng.Intn(3)]
		case 1, 2:
			ev.Kind = KindGPU
			ev.Target = rng.Intn(max(1, b.Slots))
		case 3:
			ev.Kind = KindDrawer
			ev.Target = rng.Intn(b.drawers())
		}
		p.Events = append(p.Events, ev)
	}
	return Sanitize(p, b)
}

func horizon(b Bounds) time.Duration {
	if b.Horizon > 0 {
		return b.Horizon
	}
	return 60 * time.Second
}

// Sanitize maps an arbitrary plan onto the nearest valid one for the
// bounds: targets clamped onto real hardware, times clamped into the
// horizon, factors into [0,1), overlapping events on the same target
// dropped (a target fails once at a time; a permanent fault shadows
// everything after it), and the permanent-GPU budget enforced — device
// faults beyond it are forced to heal. It is idempotent, and a sanitized
// plan is safe to arm against any system matching the bounds.
func Sanitize(p Plan, b Bounds) Plan {
	out := Plan{Seed: p.Seed}
	evs := append([]Event(nil), p.Events...)
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case KindSlotLink, KindGPU:
			e.Target = clampInt(e.Target, 0, max(0, b.Slots-1))
		case KindHostLink, KindHost:
			e.Target = clampInt(e.Target, 0, max(0, b.Hosts-1))
		case KindDrawer:
			e.Target = clampInt(e.Target, 0, b.drawers()-1)
		case KindSpineLink, KindPod:
			if b.Pods > 0 {
				e.Target = clampInt(e.Target, 0, b.pods()-1)
			} else {
				// No pod tier: the nearest real surface is a device fault.
				e.Kind = KindGPU
				e.Target = clampInt(e.Target, 0, max(0, b.Slots-1))
			}
		default:
			e.Kind = KindGPU
			e.Target = clampInt(e.Target, 0, max(0, b.Slots-1))
		}
		if e.At < minFaultTime {
			e.At = minFaultTime
		}
		if e.At > horizon(b) {
			e.At = horizon(b)
		}
		switch {
		case !e.Kind.linkKind():
			e.Factor = 0
		case e.Factor < 0 || math.IsNaN(e.Factor):
			e.Factor = 0
		case e.Factor >= 1:
			e.Factor = 0.5
		}
		if e.Repair < 0 {
			e.Repair = 0
		}
		if e.Repair > 0 && e.Repair < 100*time.Millisecond {
			e.Repair = 100 * time.Millisecond
		}
		// Hosts, drawers and pods always come back: a stream must be able
		// to drain, and a permanently-dead host would wedge its tenants.
		if (e.Kind == KindHost || e.Kind == KindDrawer || e.Kind == KindPod) && e.Permanent() {
			e.Repair = 2 * time.Second
		}
	}
	// Deterministic order (typed stable insertion sort — plans are short
	// and the closure-free sort keeps compilation off the allocator), then
	// overlap resolution per (kind, target).
	sortEvents(evs)
	// busyUntil is a dense (kind, target) table: after the clamps above,
	// targets sit in [0, max(slots, hosts, drawers)), so a flat slice
	// replaces the old map. 0 encodes "free" (every real entry is ≥
	// minFaultTime), -1 encodes "permanently busy".
	span := max(max(max(b.Slots, b.Hosts), b.drawers()), b.pods())
	if span < 1 {
		span = 1
	}
	busyUntil := make([]time.Duration, len(kindOrder)*span)
	permanentGPUs := 0
	for _, e := range evs {
		if len(out.Events) >= DefaultMaxEvents*4 {
			break
		}
		k := kindIndex(e.Kind)*span + e.Target
		if until := busyUntil[k]; until != 0 && (until < 0 || e.At < until) {
			continue // overlaps an earlier fault on the same target
		}
		if e.Kind == KindGPU && e.Permanent() {
			if permanentGPUs >= b.MaxPermanentGPUs {
				e.Repair = 2 * time.Second // budget spent: force healing
			} else {
				permanentGPUs++
			}
		}
		if e.Permanent() {
			busyUntil[k] = -1
		} else {
			busyUntil[k] = e.At + e.Repair
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// kindOrder enumerates the kinds for the dense busyUntil table. New kinds
// append; the order is load-bearing for the table layout.
var kindOrder = [...]Kind{KindSlotLink, KindHostLink, KindGPU, KindDrawer, KindHost, KindSpineLink, KindPod}

func kindIndex(k Kind) int {
	for i, o := range kindOrder {
		if o == k {
			return i
		}
	}
	return 2 // Sanitize maps unknown kinds to KindGPU
}

// sortEvents stable-sorts by (At, Kind, Target) with an insertion sort.
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i - 1
		for j >= 0 && eventAfter(evs[j], e) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = e
	}
}

func eventAfter(a, b Event) bool {
	if a.At != b.At {
		return a.At > b.At
	}
	if a.Kind != b.Kind {
		return a.Kind > b.Kind
	}
	return a.Target > b.Target
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Record is one applied fault or repair observation, in application order.
type Record struct {
	At     time.Duration
	Kind   Kind
	Target int
	Factor float64 // link kinds: capacity fraction now in effect
	// Up is false when the fault strikes, true when the repair lands.
	Up bool
}

// String renders the record with the same manual strconv/append scheme as
// Event.String; the golden render test pins the bytes.
func (r Record) String() string {
	var buf [96]byte
	b := append(buf[:0], r.At.String()...)
	if r.Up {
		b = append(b, " repair "...)
	} else {
		b = append(b, " FAIL "...)
	}
	b = appendKindTarget(b, r.Kind, r.Target)
	if r.Kind.linkKind() {
		b = appendFactor(b, r.Factor)
	}
	return string(b)
}

// Injector schedules a plan's events into a simulation and hands each
// applied fault and repair to its handler, keeping the applied-record log
// the fingerprint reads from.
type Injector struct {
	env     *sim.Env
	plan    Plan
	handle  func(Record)
	records []Record
	armed   bool
	// obs, when set, renders each fault as one faults-track span from
	// injection to repair (the blast radius's extent in sim time);
	// obsOpen holds the in-flight spans keyed by (kind, target) —
	// lookup/insert/delete only, never iterated, so order cannot leak.
	obs     *obs.Collector
	obsOpen map[obsSpanKey]obs.SpanID
}

// obsSpanKey identifies one fault's open span: the injector applies at
// most one outstanding fault per (kind, target) pair at a time.
type obsSpanKey struct {
	kind   Kind
	target int
}

// NewInjector binds a (sanitized) plan to an environment and the handler
// that owns the hardware. The handler receives every fault (Up false) and
// every repair (Up true), in application order. A link record's Factor
// is the capacity fraction now in effect: the event's factor clamped to
// at least OutageFloor on failure, 1 on repair. The record log is sized
// up front: every event applies at most twice (fault + repair), so the
// recovery path never grows it.
func NewInjector(env *sim.Env, plan Plan, handle func(Record)) *Injector {
	return &Injector{env: env, plan: plan, handle: handle,
		records: make([]Record, 0, 2*len(plan.Events))}
}

// SetObs installs an observability collector: every applied fault becomes
// a span on the faults track, opened when the fault strikes and closed by
// its repair (a permanent fault's span stays open and is clamped at
// export). Pass nil to disable.
func (in *Injector) SetObs(c *obs.Collector) {
	in.obs = c
	if c != nil {
		in.obsOpen = make(map[obsSpanKey]obs.SpanID)
	}
}

// obsRecord pairs fault/repair records into spans; kept off the hot apply
// path behind its nil check.
func (in *Injector) obsRecord(r Record) {
	k := obsSpanKey{kind: r.Kind, target: r.Target}
	if r.Up {
		if id, ok := in.obsOpen[k]; ok {
			in.obs.End(id)
			delete(in.obsOpen, k)
		}
		return
	}
	id := in.obs.Begin(obs.CatFaults, string(r.Kind))
	in.obs.SetAttr(id, "target", int64(r.Target))
	if r.Kind.linkKind() {
		// Per-mille capacity factor keeps span attributes integer-typed.
		// float64(…) rounds the product, so no architecture fuses it (FMA).
		in.obs.SetAttr(id, "factor_pm", int64(float64(r.Factor*1000)+0.5))
	}
	in.obsOpen[k] = id
}

// Arm schedules every event (and its repair) as sim callbacks. It must be
// called before the environment runs and at most once.
func (in *Injector) Arm() {
	if in.armed {
		panic("faults: injector armed twice")
	}
	in.armed = true
	for _, e := range in.plan.Events {
		e := e
		in.env.Schedule(e.At, func() { in.apply(e, false) })
		if !e.Permanent() {
			in.env.Schedule(e.At+e.Repair, func() { in.apply(e, true) })
		}
	}
}

//perf:hot
func (in *Injector) apply(e Event, up bool) {
	rec := Record{At: in.env.Now(), Kind: e.Kind, Target: e.Target, Up: up}
	if e.Kind.linkKind() {
		rec.Factor = max(e.Factor, OutageFloor)
		if up {
			rec.Factor = 1
		}
	}
	in.handle(rec)
	in.records = append(in.records, rec)
	if in.obs != nil {
		in.obsRecord(rec)
	}
}

// Records returns the applied fault/repair log in application order.
func (in *Injector) Records() []Record { return in.records }

// AppliedLedger canonically renders the applied records, one per line —
// appended to a faulty run's fingerprint so the run-twice determinism
// check also covers what the engine actually did. Manual strconv/append
// rendering, byte-pinned by the golden render test.
func (in *Injector) AppliedLedger() string {
	b := make([]byte, 0, 64*len(in.records))
	for _, r := range in.records {
		b = append(b, "applied at="...)
		b = strconv.AppendInt(b, int64(r.At), 10)
		b = append(b, " kind="...)
		b = append(b, r.Kind...)
		b = append(b, " target="...)
		b = strconv.AppendInt(b, int64(r.Target), 10)
		b = append(b, " factor="...)
		b = strconv.AppendFloat(b, r.Factor, 'g', -1, 64)
		if r.Up {
			b = append(b, " up=1\n"...)
		} else {
			b = append(b, " up=0\n"...)
		}
	}
	return string(b)
}
