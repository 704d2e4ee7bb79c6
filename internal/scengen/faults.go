package scengen

import (
	"time"

	"composable/internal/falcon"
	"composable/internal/faults"
)

// faultHorizon bounds generated fault times: long enough to land inside
// any sweep-sized fleet run, short enough that most faults actually hit.
const faultHorizon = 30 * time.Second

// faultBounds derives the plan bounds a fleet scenario implies. The same
// bounds are computed by the orchestrator when arming, so a sanitized
// scenario passes through it unchanged.
func faultBounds(fleet FleetScenario) faults.Bounds {
	maxDemand := 2
	for _, j := range fleet.Jobs {
		if j.GPUs > maxDemand {
			maxDemand = j.GPUs
		}
	}
	b := faults.Bounds{
		Slots:            fleet.TotalGPUs(),
		SlotsPerDrawer:   falcon.SlotsPerDrawer,
		Hosts:            fleet.TotalHosts(),
		Horizon:          faultHorizon,
		MaxPermanentGPUs: fleet.TotalGPUs() - maxDemand,
	}
	if fleet.podShaped() {
		// Pod fleets span the global drawer space and draw the two
		// pod-scoped kinds; the degenerate derivation stays untouched so
		// old seeds keep their plans.
		b.Drawers = fleet.chassisCount() * falcon.NumDrawers
		b.Pods = fleet.Pods
	}
	if b.MaxPermanentGPUs < 0 {
		b.MaxPermanentGPUs = 0
	}
	if fleet.Policy == "static" {
		// A fixed per-tenant share cannot survive a permanently dead
		// device: every fault must heal.
		b.MaxPermanentGPUs = 0
	}
	return b
}

// FaultsFromSeed derives one valid faulty fleet scenario from a seed:
// the seed's fleet scenario (FleetFromSeed) plus a fault plan drawn from
// a decoupled stream of the same seed, sanitized together. Equal seeds
// yield equal scenarios.
func FaultsFromSeed(seed int64) FleetScenario {
	sc := FleetFromSeed(seed)
	// Decouple the fault draw from the fleet draw so extending one
	// generator never reshuffles the other.
	sc.Plan = faults.FromSeed(seed^0x5eedFa017, faultBounds(sc))
	return SanitizeFleet(sc)
}

// PlanForFleet derives a seeded fault plan sized to a fleet scenario —
// the CLI path for "this fleet scenario, but with fault schedule N".
func PlanForFleet(seed int64, fleet FleetScenario) faults.Plan {
	return faults.FromSeed(seed, faultBounds(fleet))
}
