package invariant

import (
	"sort"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/orchestrator"
)

// Fleet-side invariants. The orchestrator exposes a lifecycle probe
// (orchestrator.Options.Probe) and the chassis an observer hook
// (falcon.Chassis.Observe); a Set attached to both checks, while the
// fleet runs:
//
//   - no GPU double-assignment: a slot is held by at most one job at any
//     instant, and only released by the job holding it;
//   - queue-lifecycle monotonicity: every job moves arrive → place →
//     launch → finish exactly once, at nondecreasing virtual times;
//   - attach/detach conservation: the chassis event stream and the
//     chassis aggregate state agree at every step — an attach lands on an
//     owned slot, a detach on an unowned one, and the replayed event
//     stream reproduces the attached-device count.
//
// CheckFleetResult adds the post-run structural checks (no leaked GPU
// memory or flows, recomposition accounting consistent, aggregates in
// range).

// jobLife tracks one job through the orchestrator lifecycle.
type jobLife struct {
	phase  int // 0 arrived/queued, 1 placed, 2 launched, 3 finished
	at     time.Duration
	kills  int
	failed bool
}

// phaseOf maps lifecycle event kinds to phases (-1 for non-lifecycle).
func phaseOf(kind orchestrator.EventKind) int {
	switch kind {
	case orchestrator.EventArrive:
		return 0
	case orchestrator.EventPlace:
		return 1
	case orchestrator.EventLaunch:
		return 2
	case orchestrator.EventFinish:
		return 3
	}
	return -1
}

// OrchestratorProbe returns a probe for orchestrator.Options.Probe that
// checks queue-lifecycle monotonicity and GPU assignment exclusivity on
// every scheduler event. Under faults it additionally checks that a kill
// returns the job to the queue (and releases exactly the slots it held),
// that a fail is terminal, and that nothing is ever placed or launched on
// a down slot or crashed host.
func (s *Set) OrchestratorProbe() func(orchestrator.Event) {
	if s.orcJobs == nil {
		s.orcJobs = make(map[int]*jobLife)
		s.orcSlots = make(map[int]int)
		s.orcDownSlots = make(map[int]bool)
		s.orcDownHosts = make(map[int]bool)
		s.orcDownPods = make(map[int]bool)
	}
	return func(ev orchestrator.Event) {
		if ev.At < s.lastOrc {
			s.Report("orchestrator/time-monotonic", ev.At,
				"event %s for job %d at %v after %v", ev.Kind, ev.Job, ev.At, s.lastOrc)
		}
		s.lastOrc = ev.At

		// Fault events: maintain the down sets the placement checks read.
		switch ev.Kind {
		case orchestrator.EventSlotDown:
			for k := range ev.Slots {
				s.orcDownSlots[slotKey(ev, k)] = true
			}
			return
		case orchestrator.EventSlotUp:
			for k := range ev.Slots {
				delete(s.orcDownSlots, slotKey(ev, k))
			}
			return
		case orchestrator.EventHostDown:
			s.orcDownHosts[ev.Host] = true
			return
		case orchestrator.EventHostUp:
			delete(s.orcDownHosts, ev.Host)
			return
		case orchestrator.EventPodDown:
			s.orcDownPods[ev.Pod] = true
			return
		case orchestrator.EventPodUp:
			delete(s.orcDownPods, ev.Pod)
			return
		}

		life := s.orcJobs[ev.Job]

		// Kill/fail: the fault-recovery transitions.
		switch ev.Kind {
		case orchestrator.EventKill:
			if life == nil || (life.phase != 1 && life.phase != 2) {
				s.Report("orchestrator/lifecycle", ev.At,
					"job %d killed while not placed or launched (%+v)", ev.Job, life)
				if life == nil {
					life = &jobLife{}
					s.orcJobs[ev.Job] = life
				}
			}
			life.phase, life.at = 0, ev.At
			life.kills++
			for k, ref := range ev.Slots {
				key := slotKey(ev, k)
				if holder, held := s.orcSlots[key]; !held || holder != ev.Job {
					s.Report("orchestrator/release", ev.At,
						"killed job %d released slot %v it did not hold (holder %d, held %t)", ev.Job, ref, holder, held)
					continue
				}
				delete(s.orcSlots, key)
			}
			return
		case orchestrator.EventFail:
			if life == nil || life.phase != 0 || life.kills == 0 {
				s.Report("orchestrator/lifecycle", ev.At,
					"job %d failed without a preceding kill (%+v)", ev.Job, life)
			}
			if life != nil {
				life.failed = true
			}
			return
		}

		phase := phaseOf(ev.Kind)
		if phase < 0 {
			s.Report("orchestrator/event-kind", ev.At, "unknown event kind %q", ev.Kind)
			return
		}
		switch {
		case life == nil && phase != 0:
			s.Report("orchestrator/lifecycle", ev.At, "job %d %s before arriving", ev.Job, ev.Kind)
			life = &jobLife{phase: phase, at: ev.At}
			s.orcJobs[ev.Job] = life
		case life == nil:
			s.orcJobs[ev.Job] = &jobLife{phase: 0, at: ev.At}
		default:
			if life.failed {
				s.Report("orchestrator/lifecycle", ev.At, "failed job %d saw %s", ev.Job, ev.Kind)
			}
			if phase != life.phase+1 {
				s.Report("orchestrator/lifecycle", ev.At,
					"job %d %s out of order (phase %d after %d)", ev.Job, ev.Kind, phase, life.phase)
			}
			if ev.At < life.at {
				s.Report("orchestrator/lifecycle-time", ev.At,
					"job %d %s at %v before its previous event at %v", ev.Job, ev.Kind, ev.At, life.at)
			}
			life.phase, life.at = phase, ev.At
		}

		switch ev.Kind {
		case orchestrator.EventPlace:
			if s.orcDownHosts[ev.Host] {
				s.Report("orchestrator/place-down-host", ev.At,
					"job %d placed on crashed host %d", ev.Job, ev.Host)
			}
			if s.orcHostPod != nil && ev.Host >= 0 && ev.Host < len(s.orcHostPod) &&
				s.orcDownPods[s.orcHostPod[ev.Host]] {
				s.Report("orchestrator/place-down-pod", ev.At,
					"job %d placed on host %d inside down pod %d", ev.Job, ev.Host, s.orcHostPod[ev.Host])
			}
			for k, ref := range ev.Slots {
				key := slotKey(ev, k)
				if s.orcDownSlots[key] {
					s.Report("orchestrator/place-down-slot", ev.At,
						"job %d placed on down slot %v", ev.Job, ref)
				}
				if holder, held := s.orcSlots[key]; held {
					s.Report("orchestrator/double-assign", ev.At,
						"slot %v assigned to job %d while held by job %d", ref, ev.Job, holder)
					continue
				}
				s.orcSlots[key] = ev.Job
			}
		case orchestrator.EventLaunch:
			for k, ref := range ev.Slots {
				if s.orcDownSlots[slotKey(ev, k)] {
					s.Report("orchestrator/launch-down-slot", ev.At,
						"job %d launched holding down slot %v", ev.Job, ref)
				}
			}
		case orchestrator.EventFinish:
			for k, ref := range ev.Slots {
				key := slotKey(ev, k)
				if holder, held := s.orcSlots[key]; !held || holder != ev.Job {
					s.Report("orchestrator/release", ev.At,
						"job %d released slot %v it did not hold (holder %d, held %t)", ev.Job, ref, holder, held)
					continue
				}
				delete(s.orcSlots, key)
			}
		}
	}
}

// slotKey returns the global fleet index of the k-th slot in an event. The
// orchestrator always populates Event.Indices; hand-built events without it
// fall back to the single-chassis bijection ref ↔ drawer×slots + slot.
func slotKey(ev orchestrator.Event, k int) int {
	if k < len(ev.Indices) {
		return ev.Indices[k]
	}
	ref := ev.Slots[k]
	return ref.Drawer*falcon.SlotsPerDrawer + ref.Slot
}

// WatchFleet attaches the conservation check to every chassis of a fleet
// and records the host→pod map the pod-blast placement check reads.
func (s *Set) WatchFleet(f *cluster.FleetSystem) {
	s.orcHostPod = make([]int, len(f.Hosts))
	for h, host := range f.Hosts {
		s.orcHostPod[h] = host.Pod
	}
	for ci, ch := range f.ChassisList {
		s.watchChassis(ch, ci)
	}
}

func (s *Set) watchChassis(ch *falcon.Chassis, ci int) {
	if s.chassisAttached == nil {
		s.chassisAttached = make(map[chassisSlot]bool)
		s.chassisAttachedN = make(map[int]int)
	}
	for _, ref := range ch.Slots() {
		if ch.Owner(ref) != "" {
			s.chassisAttached[chassisSlot{ci, ref}] = true
			s.chassisAttachedN[ci]++
		}
	}
	ch.Observe(func(ev string, ref falcon.SlotRef) {
		now := ch.Now()
		key := chassisSlot{ci, ref}
		switch ev {
		case "attach":
			if ch.Owner(ref) == "" {
				s.Report("chassis/attach-state", now, "attach event on unowned slot %v", ref)
				return
			}
			if s.chassisAttached[key] {
				s.chassisReassigns++
			} else {
				s.chassisAttaches++
				s.chassisAttached[key] = true
				s.chassisAttachedN[ci]++
			}
		case "detach":
			if ch.Owner(ref) != "" {
				s.Report("chassis/detach-state", now, "detach event on owned slot %v", ref)
				return
			}
			if !s.chassisAttached[key] {
				s.Report("chassis/conservation", now, "detach of never-attached slot %v", ref)
				return
			}
			s.chassisDetaches++
			delete(s.chassisAttached, key)
			s.chassisAttachedN[ci]--
		default:
			return
		}
		if got, want := ch.Summary().Attached, s.chassisAttachedN[ci]; got != want {
			s.Report("chassis/conservation", now,
				"chassis %d reports %d attached devices, event stream implies %d", ci, got, want)
		}
	})
}

// CheckFleetResult runs the post-run structural checks on a completed
// fleet run: lifecycle completeness, recomposition accounting against the
// chassis event stream, aggregate ranges, leak freedom on every device
// and the fabric, and — under faults — the lost-work ledger: kills match
// retries, lost GPU time balances per job against the fleet total, and a
// fault-free job lost nothing.
func (s *Set) CheckFleetResult(f *cluster.FleetSystem, res *orchestrator.FleetResult) {
	at := res.Makespan
	completed := 0
	for _, j := range res.Jobs {
		if !j.Failed {
			completed++
		}
	}
	if res.Makespan <= 0 && completed > 0 {
		s.Report("fleet/makespan", at, "nonpositive makespan %v with %d completed jobs", res.Makespan, completed)
	}
	if res.Utilization < 0 || res.Utilization > 1+utilSlack {
		s.Report("fleet/utilization", at, "utilization %v outside [0,1]", res.Utilization)
	}
	if res.GPUSeconds < 0 || res.FragmentationGPUSeconds < 0 {
		s.Report("fleet/gpu-seconds", at, "negative GPU-second aggregates: %v delivered, %v stranded",
			res.GPUSeconds, res.FragmentationGPUSeconds)
	}

	movesTotal, retriesTotal, lostTotal, deliveredTotal := 0, 0, 0.0, 0.0
	for _, j := range res.Jobs {
		movesTotal += j.Moves
		retriesTotal += j.Retries
		lostTotal += j.LostGPUSeconds
		if j.LostGPUSeconds < 0 {
			s.Report("fleet/lost-work", at, "job %d negative lost work %v", j.ID, j.LostGPUSeconds)
		}
		if j.GPUSeconds < 0 {
			s.Report("fleet/gpu-seconds", at, "job %d negative delivered GPU time %v", j.ID, j.GPUSeconds)
		}
		if j.Retries == 0 && !j.Failed && j.GPUSeconds != 0 {
			// One uninterrupted attempt: delivered time is exactly GPUs ×
			// runtime, the same float product the scheduler computes.
			if want := float64(j.GPUs) * j.Runtime.Seconds(); j.GPUSeconds != want {
				s.Report("fleet/gpu-seconds", at,
					"job %d delivered %v GPU-s without retries, want GPUs × runtime = %v", j.ID, j.GPUSeconds, want)
			}
		}
		if !j.Failed {
			deliveredTotal += j.GPUSeconds
			// A retried job delivered at least its final attempt; checkpoint
			// carry-over can only add to it.
			if want := float64(j.GPUs) * j.Runtime.Seconds(); j.GPUSeconds+1e-9 < want {
				s.Report("fleet/gpu-seconds", at,
					"job %d delivered %v GPU-s, less than its final attempt %v", j.ID, j.GPUSeconds, want)
			}
		}
		if j.Retries == 0 && !j.Failed && j.LostGPUSeconds != 0 {
			s.Report("fleet/lost-work", at, "job %d lost %v GPU-s without any kill", j.ID, j.LostGPUSeconds)
		}
		life := s.orcJobs[j.ID]
		if life != nil && life.kills != j.Retries {
			s.Report("fleet/retry-count", at, "job %d reports %d retries, probe saw %d kills", j.ID, j.Retries, life.kills)
		}
		if j.Failed {
			if life == nil || !life.failed {
				s.Report("fleet/lifecycle-complete", at, "job %d reported failed without a fail event (%+v)", j.ID, life)
			}
			if j.Finished != 0 || j.Runtime != 0 {
				s.Report("fleet/failed-job", at, "failed job %d carries completion telemetry (%+v)", j.ID, j)
			}
			continue
		}
		if life == nil || life.phase != 3 {
			s.Report("fleet/lifecycle-complete", at, "job %d did not complete its lifecycle (%+v)", j.ID, life)
		}
		if j.Wait < 0 || j.Wait != j.Launched-j.Arrival {
			s.Report("fleet/wait", at, "job %d wait %v inconsistent with launch %v - arrival %v",
				j.ID, j.Wait, j.Launched, j.Arrival)
		}
		if j.Runtime <= 0 {
			s.Report("fleet/runtime", at, "job %d nonpositive runtime %v", j.ID, j.Runtime)
		}
		if j.Finished > res.Makespan {
			s.Report("fleet/makespan", at, "job %d finished at %v after the makespan %v", j.ID, j.Finished, res.Makespan)
		}
	}
	if res.Recompositions != movesTotal {
		s.Report("fleet/recomposition-count", at,
			"fleet reports %d recompositions, per-job moves sum to %d", res.Recompositions, movesTotal)
	}
	if res.Kills != retriesTotal {
		s.Report("fleet/kill-count", at, "fleet reports %d kills, per-job retries sum to %d", res.Kills, retriesTotal)
	}
	if diff := res.LostGPUSeconds - lostTotal; diff > 1e-9 || diff < -1e-9 {
		s.Report("fleet/lost-work", at,
			"fleet lost-work %v does not balance per-job sum %v", res.LostGPUSeconds, lostTotal)
	}
	if diff := res.GPUSeconds - deliveredTotal; diff > 1e-6 || diff < -1e-6 {
		s.Report("fleet/gpu-seconds", at,
			"fleet delivered %v GPU-s does not balance per-job sum %v", res.GPUSeconds, deliveredTotal)
	}
	if res.Faults == 0 && (res.Kills != 0 || res.FailedJobs != 0 || res.LostGPUSeconds != 0) {
		s.Report("fleet/lost-work", at,
			"fault-free run reports recovery activity: %d kills, %d failed, %v lost",
			res.Kills, res.FailedJobs, res.LostGPUSeconds)
	}
	if res.Makespan > 0 {
		if g := res.GPUSeconds / res.Makespan.Seconds(); g-res.Goodput > 1e-9 || res.Goodput-g > 1e-9 {
			s.Report("fleet/goodput", at, "goodput %v inconsistent with %v GPU-s over %v", res.Goodput, res.GPUSeconds, res.Makespan)
		}
	}
	// No job may be left holding a down slot once the stream drains.
	for idx, job := range s.orcSlots {
		if s.orcDownSlots[idx] {
			s.Report("fleet/down-slot-held", at, "down slot #%d still held by job %d after the run", idx, job)
		}
	}
	if s.chassisAttached != nil {
		if stream := s.chassisAttaches + s.chassisReassigns; stream != res.Recompositions {
			s.Report("fleet/recomposition-conservation", at,
				"chassis event stream saw %d runtime moves (%d attaches + %d reassigns), orchestrator reports %d",
				stream, s.chassisAttaches, s.chassisReassigns, res.Recompositions)
		}
	}

	// No slot may remain assigned after the stream drains.
	if len(s.orcSlots) > 0 {
		held := make([]int, 0, len(s.orcSlots))
		for idx := range s.orcSlots {
			held = append(held, idx)
		}
		sort.Ints(held)
		s.Report("fleet/slots-released", at, "%d slot(s) still assigned after the run: %v", len(held), held)
	}
	// Device/fabric leak checks need the fleet; nil runs the pure ledger
	// checks only (forged-result tests).
	if f == nil {
		return
	}
	// A slot no job was composed onto has no model and holds no memory.
	for _, slot := range f.Slots {
		dev := slot.Device()
		if dev == nil {
			continue
		}
		if dev.Used() != 0 {
			s.Report("gpu/memory-leak", at, "%s still holds %v after the fleet run", dev.Name(), dev.Used())
		}
		if dev.PeakUsed() > dev.Usable() {
			s.Report("gpu/peak-memory", at, "%s peak %v over usable %v", dev.Name(), dev.PeakUsed(), dev.Usable())
		}
	}
	if n := f.Net.ActiveFlows(); n != 0 {
		s.Report("fabric/flows-drained", at, "%d flows still active after the fleet run", n)
	}
}
