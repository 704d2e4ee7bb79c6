package scengen

import (
	"fmt"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/invariant"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/sim"
)

// FaultScenario is a fleet scenario with a fault schedule played into it:
// the sweep axis the paper's test bed cannot cover — every result under
// link flaps, dying GPUs, drawer hot-unplugs and host crashes, with
// checkpoint/restart recovery. A scenario produced by FaultsFromSeed or
// SanitizeFaults is valid by construction: it composes, the plan targets
// real hardware, every non-repairable failure leaves the largest job
// enough survivors, and a static-partition scenario only sees failures
// that heal (a permanently dead device would wedge a fixed share).
type FaultScenario struct {
	Fleet FleetScenario
	Plan  faults.Plan
	// MaxRetries is the per-job reschedule budget, with the convention of
	// orchestrator.Options: 0 picks the orchestrator default, negative
	// means no retries (SanitizeFaults normalises it to -1).
	MaxRetries int
}

// faultHorizon bounds generated fault times: long enough to land inside
// any sweep-sized fleet run, short enough that most faults actually hit.
const faultHorizon = 30 * time.Second

// ID is a compact deterministic label for the scenario.
func (sc FaultScenario) ID() string {
	return fmt.Sprintf("%s-f%d", sc.Fleet.ID(), len(sc.Plan.Events))
}

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

// FaultsFromSeed derives one valid fault scenario from a seed: the seed's
// fleet scenario (FleetFromSeed) plus a fault plan drawn from a decoupled
// stream of the same seed, sanitized together. Equal seeds yield equal
// scenarios.
func FaultsFromSeed(seed int64) FaultScenario {
	fleet := FleetFromSeed(seed)
	// Decouple the fault draw from the fleet draw so extending one
	// generator never reshuffles the other.
	plan := faults.FromSeed(seed^0x5eedFa017, faultBounds(fleet))
	return SanitizeFaults(FaultScenario{Fleet: fleet, Plan: plan})
}

// PlanForFleet derives a seeded fault plan sized to a fleet scenario —
// the CLI path for "this fleet scenario, but with fault schedule N".
func PlanForFleet(seed int64, fleet FleetScenario) faults.Plan {
	return faults.FromSeed(seed, faultBounds(fleet))
}

// SanitizeFaults maps an arbitrary fault scenario onto the nearest valid
// one: the fleet scenario sanitized, then the plan sanitized against the
// bounds that fleet implies. It is idempotent.
func SanitizeFaults(sc FaultScenario) FaultScenario {
	sc.Fleet = SanitizeFleet(sc.Fleet)
	sc.Plan = faults.Sanitize(sc.Plan, faultBounds(sc.Fleet))
	if sc.MaxRetries < 0 {
		sc.MaxRetries = -1
	}
	return sc
}

// RunFaultyFleet executes the scenario end to end on a fresh simulation
// with the fault plan armed and the full fleet invariant probe set
// attached — including the fault-aware checks: no placement on a down
// slot or crashed host, kill/requeue lifecycle legality, lost-work ledger
// balance, and byte conservation under mid-run capacity changes. The
// outcome's fingerprint covers the applied-fault ledger, so the run-twice
// determinism tier extends to faulty runs.
func RunFaultyFleet(sc FaultScenario) (*FleetOutcome, error) {
	return RunFaultyFleetObserved(sc, nil)
}

// RunFaultyFleetObserved is RunFaultyFleet with an observability
// collector attached across the stack; fault injections additionally
// open blast-radius spans that close on repair. A nil collector
// degrades to the plain RunFaultyFleet.
func RunFaultyFleetObserved(sc FaultScenario, c *obs.Collector) (*FleetOutcome, error) {
	return RunFaultyFleetOn(sim.NewEnv(), sc, c)
}

// RunFaultyFleetOn is RunFaultyFleetObserved on a caller-supplied fresh
// environment, for callers that attach their own engine probes first.
// An empty plan arms nothing, so it is also the fault-free runner.
func RunFaultyFleetOn(env *sim.Env, sc FaultScenario, c *obs.Collector) (*FleetOutcome, error) {
	if c != nil {
		c.Attach(env)
	}
	f, err := cluster.ComposeFleet(env, sc.Fleet.fleetOptions())
	if err != nil {
		return nil, fmt.Errorf("scengen: compose %s: %w", sc.ID(), err)
	}
	if c != nil {
		f.AttachObs(c)
	}
	pol, err := orchestrator.PolicyByName(sc.Fleet.Policy)
	if err != nil {
		return nil, fmt.Errorf("scengen: %s: %w", sc.ID(), err)
	}
	inv := invariant.New()
	inv.WatchEnv(env)
	inv.WatchNetwork(f.Net)
	inv.WatchFleet(f)
	res, err := orchestrator.Run(f, sc.Fleet.Jobs, orchestrator.Options{
		Policy:        pol,
		AttachLatency: sc.Fleet.AttachLatency,
		Probe:         inv.OrchestratorProbe(),
		Faults:        &sc.Plan,
		MaxRetries:    sc.MaxRetries,
		Obs:           c,
	})
	if err != nil {
		return nil, fmt.Errorf("scengen: fleet %s: %w", sc.ID(), err)
	}
	inv.CheckFleetResult(f, res)
	return &FleetOutcome{Scenario: sc.Fleet, Result: res, Inv: inv, Fingerprint: res.Fingerprint()}, nil
}
