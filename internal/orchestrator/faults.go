package orchestrator

import (
	"fmt"
	"strconv"
	"time"

	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/obs"
	"composable/internal/units"
)

// Fault recovery. The scheduler arms a faults.Plan against the fleet and
// reacts to every event the injector dispatches:
//
//   - link degradation/outage rescales the slot, host-adapter or pod
//     spine link in the live fabric (in-flight flows slow down or freeze,
//     and thaw on repair);
//   - a GPU failure, drawer unplug or pod power loss blacklists the
//     slot(s) — detached from the control plane, excluded from placement —
//     and kills any job holding them;
//   - a host crash, or its pod's power loss, kills every job placed or
//     running there and takes the host out of the placement pool until it
//     recovers.
//
// A killed job winds down cooperatively (the training engine stops every
// rank at a consistent iteration boundary, the simulated NCCL teardown),
// releases its GPUs, and re-enters the queue in arrival order. Its next
// launch resumes from the last epoch-boundary checkpoint: completed
// epochs carry over, the restore cost is charged, and only the work since
// the last checkpoint is lost — the ledger the lost-work invariant
// balances. A job that exhausts its retry budget is marked Failed.

// armFaults sanitizes the plan against the fleet's real shape and arms an
// injector that hands every fault and repair to applyFault.
func (s *scheduler) armFaults(plan faults.Plan) {
	f := s.fleet
	bounds := faults.Bounds{
		Slots:          len(f.Slots),
		SlotsPerDrawer: falcon.SlotsPerDrawer,
		Hosts:          len(f.Hosts),
		Horizon:        1<<62 - 1, // the plan's own times stand
	}
	if f.Opts.Hierarchical() {
		// Pod fleets span the full global drawer space and accept the two
		// pod-scoped kinds; a degenerate fleet keeps the old derivation so
		// existing plans sanitize to the same draws.
		bounds.Drawers = f.NumDrawers()
		bounds.Pods = f.NumPods()
	}
	// Permanent device faults must leave the largest job enough survivors.
	maxDemand := 2
	for _, js := range s.jobs {
		if js.spec.GPUs > maxDemand {
			maxDemand = js.spec.GPUs
		}
	}
	bounds.MaxPermanentGPUs = len(f.Slots) - maxDemand
	if bounds.MaxPermanentGPUs < 0 {
		bounds.MaxPermanentGPUs = 0
	}
	plan = faults.Sanitize(plan, bounds)

	// Healthy link capacities, for degrade/repair rescaling.
	s.healthyCaps = make([][2]units.BytesPerSec, len(f.Net.Links()))
	for id, l := range f.Net.Links() {
		s.healthyCaps[id] = [2]units.BytesPerSec{l.CapAtoB, l.CapBtoA}
	}
	s.injector = faults.NewInjector(f.Env, plan, s.applyFault)
	s.injector.Arm()
}

// applyFault is the injector's handler: it applies one fault or repair to
// the fleet, then marks it on the fault track.
func (s *scheduler) applyFault(r faults.Record) {
	f := s.fleet
	switch r.Kind {
	case faults.KindSlotLink:
		s.scaleLink(f.Slots[r.Target].Link, r.Factor)
	case faults.KindHostLink:
		s.scaleLink(f.Hosts[r.Target].AdapterLink, r.Factor)
	case faults.KindSpineLink:
		s.scaleLink(f.PodUplinks[r.Target], r.Factor)
	case faults.KindHost:
		h := r.Target
		s.hostDown[h] = !r.Up
		s.syncHost(h)
		if r.Up {
			s.probe(Event{Kind: EventHostUp, At: r.At, Job: -1, Host: h})
			s.trySchedule()
		} else {
			s.probe(Event{Kind: EventHostDown, At: r.At, Job: -1, Host: h})
			s.killHost(h, "host"+strconv.Itoa(h+1)+" crashed")
		}
	default: // KindGPU, KindDrawer, KindPod
		s.slotRangeFault(r)
	}
	kind := "fault"
	if r.Up {
		kind = "repair"
	}
	s.track.Record(r.At, kind, string(r.Kind)+"["+strconv.Itoa(r.Target)+"]")
}

// scaleLink sets a link to factor × its healthy capacity.
func (s *scheduler) scaleLink(id fabric.LinkID, factor float64) {
	c := s.healthyCaps[id]
	s.fleet.Net.SetLinkCapacity(id, units.BytesPerSec(float64(c[0])*factor), units.BytesPerSec(float64(c[1])*factor))
}

// slotRangeFault applies a GPU, drawer or pod fault or repair to the
// slots it covers, the range [lo, hi) of the drawer-contiguous slot order.
// Every slot is synced before any is probed, and every returning slot is
// probed before scheduling resumes, so a placement never races its own
// slots' up events. A pod fault also flips its hosts: they come back
// implicitly (unless individually crashed), and on failure the jobs
// placed on them die even when their GPUs sat in another pod.
func (s *scheduler) slotRangeFault(r faults.Record) {
	s.capAccrue(r.At)
	x := s.view.idx.drawerStart
	var lo, hi int
	var cause string // read only on failure
	switch r.Kind {
	case faults.KindGPU:
		s.slotFaulty[r.Target] = !r.Up
		lo, hi = r.Target, r.Target+1
		cause = "gpu failure in " + s.fleet.Slots[r.Target].Ref.String()
	case faults.KindDrawer:
		s.drawerDown[r.Target] = !r.Up
		lo, hi = x[r.Target], x[r.Target+1]
		cause = "drawer " + strconv.Itoa(r.Target) + " hot-unplugged"
	case faults.KindPod:
		s.podDown[r.Target] = !r.Up
		perPod := s.view.ChassisPerPod * s.view.DrawersPerChassis
		lo, hi = x[r.Target*perPod], x[(r.Target+1)*perPod]
		cause = "pod " + strconv.Itoa(r.Target) + " lost power"
	}
	for i := lo; i < hi; i++ {
		s.syncSlot(i)
	}
	var hlo, hhi int // a pod's hosts: hosts are pod-major, like slots
	if r.Kind == faults.KindPod {
		n := len(s.fleet.Hosts) / len(s.podDown)
		hlo, hhi = r.Target*n, (r.Target+1)*n
		for h := hlo; h < hhi; h++ {
			s.syncHost(h)
		}
		kind := EventPodDown
		if r.Up {
			kind = EventPodUp
		}
		s.probe(Event{Kind: kind, At: r.At, Job: -1, Host: -1, Pod: r.Target})
	}
	if r.Up {
		for i := lo; i < hi; i++ {
			s.slotRepaired(i)
		}
		s.trySchedule()
		return
	}
	for i := lo; i < hi; i++ {
		s.slotLost(i, cause)
	}
	for h := hlo; h < hhi; h++ {
		s.killHost(h, cause+" under host"+strconv.Itoa(h+1))
	}
}

// killHost kills every live job placed on host h, in submission order.
func (s *scheduler) killHost(h int, cause string) {
	for _, js := range s.jobs {
		if !js.done && !js.failed && js.host == h {
			s.kill(js, cause)
		}
	}
}

// capAccrue advances the live-capacity integral to now. Exact as long as
// it runs before every availability flip: liveSlots is piecewise constant
// between fault events.
func (s *scheduler) capAccrue(now time.Duration) {
	if now > s.capLastT {
		// float64(…) rounds the product, so no architecture fuses it (FMA).
		s.capGPUSec += float64(float64(s.liveSlots) * (now - s.capLastT).Seconds())
	}
	s.capLastT = now
}

// hostAvailable reports whether a host can receive placements: it hasn't
// crashed and its pod has power.
//
//perf:hot
func (s *scheduler) hostAvailable(h int) bool {
	return !s.hostDown[h] && !s.podDown[s.fleet.Hosts[h].Pod]
}

// slotAvailable reports whether a slot is schedulable: its device healthy,
// its drawer plugged, and its pod powered.
//
//perf:hot
func (s *scheduler) slotAvailable(i int) bool {
	slot := s.fleet.Slots[i]
	return !s.slotFaulty[i] && !s.drawerDown[slot.Drawer] && !s.podDown[slot.Pod]
}

// slotLost handles a slot leaving the pool: hot-unplug from the control
// plane and kill the holder. Idempotent — a GPU fault inside an already
// unplugged drawer changes nothing.
func (s *scheduler) slotLost(i int, cause string) {
	if s.err != nil {
		return
	}
	now := s.now()
	s.account(now)
	slot := s.fleet.Slots[i]
	ref := slot.Ref
	sv := &s.view.Slots[i]
	if sv.Host != -1 && s.fleet.ChassisFor(slot).Owner(ref) != "" {
		if err := s.fleet.DetachSlot(slot); err != nil {
			s.err = fmt.Errorf("orchestrator: unplugging failed slot %v: %w", ref, err)
			return
		}
	}
	sv.Host = -1
	s.syncSlot(i)
	s.probe(Event{Kind: EventSlotDown, At: now, Job: -1, Host: -1, Slots: []falcon.SlotRef{ref}, Indices: []int{i}})
	if id := s.slotJob[i]; id != -1 {
		s.kill(s.jobs[id], cause)
	}
}

// slotRepaired handles a slot rejoining the pool (detached; the next
// placement re-attaches it). A slot stays out while its drawer is still
// unplugged or its own device still failed. The caller runs trySchedule
// once every returning slot is probed.
func (s *scheduler) slotRepaired(i int) {
	if s.err != nil || !s.slotAvailable(i) {
		return
	}
	now := s.now()
	s.account(now)
	s.probe(Event{Kind: EventSlotUp, At: now, Job: -1, Host: -1, Slots: []falcon.SlotRef{s.fleet.Slots[i].Ref}, Indices: []int{i}})
}

// kill tears one job's attempt down. Launched jobs abort cooperatively
// and reschedule when their wind-down drains; jobs still in the hot-plug
// window reschedule when the pending launch callback fires. If the abort
// loses the race against the final iteration the job completes normally
// and the kill is withdrawn.
func (s *scheduler) kill(js *jobState, cause string) {
	if js.done || js.failed || js.killed {
		return
	}
	if js.host == -1 {
		return // queued: holds nothing, nothing to kill
	}
	if js.job != nil {
		js.job.Abort()
		if !js.job.Aborted() {
			return // past the final iteration: the fault lost the race
		}
	}
	js.killed = true
	js.cause = cause
	s.kills++
	s.track.Record(s.now(), "kill", "job "+strconv.Itoa(js.spec.ID)+": "+cause)
	if s.obs != nil {
		s.obs.Inc(s.obsKills)
		ev := s.obs.Instant(obs.CatOrchestrator, "kill")
		s.obs.SetAttr(ev, "job", int64(js.spec.ID))
		s.obs.SetAttrStr(ev, "cause", cause)
	}
}

// reschedule finishes a kill once the attempt has drained: accounts the
// lost work, releases the GPUs, and requeues (or fails) the job.
func (s *scheduler) reschedule(js *jobState, now time.Duration) {
	if s.obs != nil {
		// Whatever phase the attempt died in ends here: a launched job
		// closes its run span, one killed in the hot-plug window its
		// compose span.
		s.obs.End(js.runSpan)
		s.obs.End(js.composeSpan)
		js.runSpan, js.composeSpan = 0, 0
	}
	// Checkpointed progress carries over; work past the last epoch
	// boundary of this attempt is lost.
	usefulEnd := js.launched
	if js.job != nil {
		js.epochsDone += js.job.EpochsDone()
		if end, ok := js.job.LastEpochEnd(); ok {
			usefulEnd = end
		}
		// Up to the last epoch boundary the attempt delivered kept work;
		// past it the work is lost and will be re-run.
		// float64(…) rounds the product, so no architecture fuses it (FMA).
		js.deliveredSec += float64(float64(js.spec.GPUs) * (usefulEnd - js.launched).Seconds())
		js.lostSec += float64(float64(js.spec.GPUs) * (now - usefulEnd).Seconds())
	}
	for _, slot := range js.slots {
		s.slotJob[slot.Index] = -1
		s.syncSlot(slot.Index)
	}
	s.hostGPUs[js.host] -= js.spec.GPUs
	s.hostJobs[js.host]--
	host := js.host
	refs := js.refs
	indices := js.indices
	js.job, js.slots, js.refs, js.indices, js.host = nil, nil, nil, nil, -1
	js.killed = false
	js.retries++
	s.probe(Event{Kind: EventKill, At: now, Job: js.spec.ID, Host: host, Slots: refs, Indices: indices})
	if s.obs != nil {
		s.obs.Inc(s.obsRetries)
	}
	if js.retries > s.maxRetries {
		js.failed = true
		// "abandon", not "fail": the timeline marks kinds by first rune,
		// and 'f' already means an injected fault.
		s.track.Record(now, "abandon", "job "+strconv.Itoa(js.spec.ID)+" abandoned after "+strconv.Itoa(js.retries)+" kills")
		s.probe(Event{Kind: EventFail, At: now, Job: js.spec.ID, Host: -1})
		if s.obs != nil {
			ev := s.obs.Instant(obs.CatOrchestrator, "fail")
			s.obs.SetAttr(ev, "job", int64(js.spec.ID))
			s.obs.SetAttrStr(ev, "cause", js.cause)
		}
		s.settle()
	} else {
		s.enqueue(js)
		if s.obs != nil {
			js.waitSpan = s.obs.Begin(obs.CatOrchestrator, "wait")
			s.obs.SetAttr(js.waitSpan, "job", int64(js.spec.ID))
			s.obs.SetAttr(js.waitSpan, "attempt", int64(js.retries))
		}
	}
	s.trySchedule()
}

// enqueue inserts a job into the wait queue in arrival order (ties by
// ID), so a retried job regains its FIFO position rather than the tail.
//
//perf:hot
func (s *scheduler) enqueue(js *jobState) {
	at := len(s.queue)
	for i, q := range s.queue {
		if q.spec.Arrival > js.spec.Arrival ||
			(q.spec.Arrival == js.spec.Arrival && q.spec.ID > js.spec.ID) {
			at = i
			break
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[at+1:], s.queue[at:])
	s.queue[at] = js
}
