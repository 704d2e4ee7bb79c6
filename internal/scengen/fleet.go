package scengen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/invariant"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/train"
)

// FleetScenario is one fully specified fleet run: a multi-host testbed, a
// placement policy, a seeded arrival stream of training jobs and,
// optionally, a fault schedule played into it — the sweep axis the
// paper's test bed cannot cover: every result under link flaps, dying
// GPUs, drawer hot-unplugs and host crashes, with checkpoint/restart
// recovery. A scenario produced by FleetFromSeed, FaultsFromSeed or
// SanitizeFleet is valid by construction: it composes, every job is
// placeable under the policy, every batch fits device memory, the plan
// targets real hardware, every non-repairable failure leaves the largest
// job enough survivors, and a static-partition scenario only sees
// failures that heal (a permanently dead device would wedge a fixed
// share).
type FleetScenario struct {
	// Seed records provenance; it does not affect execution.
	Seed int64

	Hosts int // host machines cabled to each chassis, 1..3 (1..2 pod-shaped)
	GPUs  int // per-chassis GPU inventory, 2..16
	// Preattach partitions the GPUs round-robin across hosts at compose
	// time. Always true for the static policy (its whole premise).
	Preattach bool

	// Pod shape (both zero = the degenerate single-chassis testbed):
	// Pods pods of ChassisPerPod chassis behind a spine, the pod uplinks
	// oversubscribed Oversubscription:1. PodFleetFromSeed draws these;
	// FleetFromSeed never does, so its seed → scenario map is unchanged.
	Pods             int
	ChassisPerPod    int
	Oversubscription float64
	// Policy is an orchestrator policy name.
	Policy string
	// AttachLatency is the per-device recomposition cost, with the same
	// convention as orchestrator.Options: 0 picks the orchestrator
	// default, negative means free recomposition.
	AttachLatency time.Duration

	Jobs []orchestrator.JobSpec

	// Plan is the fault schedule; the empty plan is a fault-free run.
	Plan faults.Plan
	// MaxRetries is the per-job reschedule budget, with the convention of
	// orchestrator.Options: 0 picks the orchestrator default, negative
	// means no retries (SanitizeFleet normalises it to -1).
	MaxRetries int
}

// podShaped reports whether the scenario selects the hierarchical fleet.
func (sc FleetScenario) podShaped() bool { return sc.Pods != 0 || sc.ChassisPerPod != 0 }

// chassisCount returns the number of chassis the scenario composes.
func (sc FleetScenario) chassisCount() int {
	if !sc.podShaped() {
		return 1
	}
	return sc.Pods * sc.ChassisPerPod
}

// TotalGPUs returns the fleet-wide GPU inventory (GPUs is per chassis).
func (sc FleetScenario) TotalGPUs() int { return sc.GPUs * sc.chassisCount() }

// TotalHosts returns the fleet-wide host count (Hosts is per chassis).
func (sc FleetScenario) TotalHosts() int { return sc.Hosts * sc.chassisCount() }

// fleetOptions maps the scenario onto cluster compose options.
func (sc FleetScenario) fleetOptions() cluster.FleetOptions {
	return cluster.FleetOptions{
		Hosts: sc.Hosts, GPUs: sc.GPUs, Preattach: sc.Preattach,
		Pods: sc.Pods, ChassisPerPod: sc.ChassisPerPod, Oversubscription: sc.Oversubscription,
	}
}

// Fleet generation bounds. Job streams are kept short and cheap: the
// sweep exists to cover the scheduling space, not to re-measure training.
const (
	fleetMaxJobs  = 8
	fleetMaxIters = 4
)

// FleetFromSeed derives one valid fleet scenario from a seed. Equal seeds
// yield equal scenarios; the mapping is fixed (extend ranges rather than
// reorder draws).
func FleetFromSeed(seed int64) FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := FleetScenario{Seed: seed}
	sc.Hosts = 2 + rng.Intn(2)
	sc.GPUs = 2*sc.Hosts + rng.Intn(17-2*sc.Hosts)
	// Drawer-local is the production default; weight it accordingly.
	sc.Policy = []string{"firstfit", "drawer", "drawer", "bandwidth", "static"}[rng.Intn(5)]
	sc.Preattach = rng.Intn(2) == 1
	sc.AttachLatency = time.Duration(200+rng.Intn(1800)) * time.Millisecond

	bench := dlmodel.Benchmarks()
	n := 3 + rng.Intn(fleetMaxJobs-2)
	var arrival time.Duration
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 { // bursts: half the stream arrives back to back
			arrival += time.Duration(rng.Intn(4000)) * time.Millisecond
		}
		j := orchestrator.JobSpec{
			Arrival:  arrival,
			Tenant:   rng.Intn(sc.Hosts),
			GPUs:     2 + rng.Intn(5),
			Workload: bench[rng.Intn(len(bench))].Name,
		}
		if rng.Intn(5) == 0 {
			j.Strategy = train.DP
		} else {
			j.Strategy = train.DDP
		}
		if rng.Intn(3) == 0 {
			j.Precision = gpu.FP32
		} else {
			j.Precision = gpu.FP16
		}
		j.Sharded = rng.Intn(6) == 0
		if rng.Intn(2) == 1 {
			j.BatchPerGPU = 1 + rng.Intn(64)
		}
		j.Epochs = 1
		j.ItersPerEpoch = 2 + rng.Intn(fleetMaxIters-1)
		sc.Jobs = append(sc.Jobs, j)
	}
	return SanitizeFleet(sc)
}

// SanitizeFleet maps an arbitrary fleet scenario onto the nearest valid
// one: counts clamped into composable ranges, the policy resolved to a
// known one, the static policy forced onto a preattached partition with
// per-tenant demands that fit its share, every job spec sanitized, and
// the fault plan sanitized against the bounds the fleet implies. It is
// idempotent.
func SanitizeFleet(sc FleetScenario) FleetScenario {
	if sc.podShaped() {
		// Sweep-sized pod fleets: big enough for cross-pod placement to
		// happen, small enough that a 100-seed run-twice sweep stays cheap.
		sc.Pods = clamp(sc.Pods, 1, 4)
		sc.ChassisPerPod = clamp(sc.ChassisPerPod, 1, 3)
		sc.Hosts = clamp(sc.Hosts, 1, 2) // the fabric port takes the third slot
		switch {
		case sc.Oversubscription < 1:
			sc.Oversubscription = 1
		case sc.Oversubscription > 16:
			sc.Oversubscription = 16
		}
	} else {
		sc.Hosts = clamp(sc.Hosts, 1, 3)
		sc.Oversubscription = 0
	}
	sc.GPUs = clamp(sc.GPUs, 2, 16)
	if _, err := orchestrator.PolicyByName(sc.Policy); err != nil {
		sc.Policy = "drawer"
	}
	if sc.Policy == "static" {
		sc.Preattach = true
		// Every tenant's share must fit at least a 2-GPU job.
		if sc.GPUs < 2*sc.Hosts {
			sc.GPUs = 2 * sc.Hosts
		}
	}
	if sc.AttachLatency < 0 {
		sc.AttachLatency = -1 // normalized "free recomposition"
	}
	if sc.AttachLatency > 10*time.Second {
		sc.AttachLatency = 10 * time.Second
	}
	if len(sc.Jobs) == 0 {
		sc.Jobs = []orchestrator.JobSpec{{GPUs: 2, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2}}
	}
	if len(sc.Jobs) > fleetMaxJobs {
		sc.Jobs = sc.Jobs[:fleetMaxJobs]
	}
	for i := range sc.Jobs {
		j := sc.Jobs[i].Sanitize(sc.TotalGPUs(), sc.TotalHosts(), gpu.TeslaV100PCIe)
		j.ItersPerEpoch = clamp(j.ItersPerEpoch, 1, fleetMaxIters)
		j.Epochs = 1
		if sc.Policy == "static" {
			// Round-robin preattach stripes within each chassis: the tenant
			// with local index l owns every chassis slot i with i%hosts == l.
			share := (sc.GPUs + sc.Hosts - 1 - j.Tenant%sc.Hosts) / sc.Hosts
			if j.GPUs > share {
				j.GPUs = share
			}
		}
		sc.Jobs[i] = j
	}
	sc.Plan = faults.Sanitize(sc.Plan, faultBounds(sc))
	if sc.MaxRetries < 0 {
		sc.MaxRetries = -1
	}
	return sc
}

// PodFleetFromSeed derives one valid pod-shaped fleet scenario from a
// seed: a hierarchical fleet of 2–3 pods, with jobs sized so that some
// placements are forced across chassis and pods. Equal seeds yield equal
// scenarios; the draw stream is independent of FleetFromSeed's.
func PodFleetFromSeed(seed int64) FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := FleetScenario{Seed: seed}
	sc.Pods = 2 + rng.Intn(2)          // 2..3
	sc.ChassisPerPod = 1 + rng.Intn(2) // 1..2
	sc.Hosts = 1 + rng.Intn(2)         // 1..2 per chassis
	sc.GPUs = 4 + rng.Intn(5)          // 4..8 per chassis
	sc.Oversubscription = []float64{1, 2, 4, 8}[rng.Intn(4)]
	sc.Policy = []string{"firstfit", "drawer", "drawer", "bandwidth", "static"}[rng.Intn(5)]
	sc.Preattach = rng.Intn(2) == 1
	sc.AttachLatency = time.Duration(200+rng.Intn(1800)) * time.Millisecond

	bench := dlmodel.Benchmarks()
	n := 3 + rng.Intn(fleetMaxJobs-2)
	var arrival time.Duration
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			arrival += time.Duration(rng.Intn(4000)) * time.Millisecond
		}
		j := orchestrator.JobSpec{
			Arrival:  arrival,
			Tenant:   rng.Intn(sc.Hosts * sc.Pods * sc.ChassisPerPod),
			GPUs:     2 + rng.Intn(2*sc.GPUs), // some demands overflow one chassis
			Workload: bench[rng.Intn(len(bench))].Name,
		}
		if rng.Intn(5) == 0 {
			j.Strategy = train.DP
		} else {
			j.Strategy = train.DDP
		}
		if rng.Intn(3) == 0 {
			j.Precision = gpu.FP32
		} else {
			j.Precision = gpu.FP16
		}
		j.Sharded = rng.Intn(6) == 0
		if rng.Intn(2) == 1 {
			j.BatchPerGPU = 1 + rng.Intn(64)
		}
		j.Epochs = 1
		j.ItersPerEpoch = 2 + rng.Intn(fleetMaxIters-1)
		sc.Jobs = append(sc.Jobs, j)
	}
	return SanitizeFleet(sc)
}

// ID is a compact, deterministic label for the scenario.
func (sc FleetScenario) ID() string {
	var b strings.Builder
	b.WriteString("fleet-")
	if sc.podShaped() {
		fmt.Fprintf(&b, "p%dx%do%g-", sc.Pods, sc.ChassisPerPod, sc.Oversubscription)
	}
	fmt.Fprintf(&b, "h%dg%d-%s", sc.Hosts, sc.GPUs, sc.Policy)
	if sc.Preattach {
		b.WriteString("-pre")
	}
	switch eff := sc.AttachLatency; {
	case eff < 0:
		fmt.Fprintf(&b, "-j%d-alfree", len(sc.Jobs))
	case eff == 0:
		fmt.Fprintf(&b, "-j%d-al%dms", len(sc.Jobs), orchestrator.DefaultAttachLatency.Milliseconds())
	default:
		fmt.Fprintf(&b, "-j%d-al%dms", len(sc.Jobs), eff.Milliseconds())
	}
	return b.String()
}

// FleetOutcome is one executed fleet scenario: the fleet telemetry, the
// invariant set that watched the run, and the canonical fingerprint used
// by the run-twice determinism check.
type FleetOutcome struct {
	Scenario    FleetScenario
	Result      *orchestrator.FleetResult
	Inv         *invariant.Set
	Fingerprint string
}

// Violations returns the invariant violations the run accumulated.
func (o *FleetOutcome) Violations() []invariant.Violation { return o.Inv.Violations() }

// Err returns nil when every invariant held.
func (o *FleetOutcome) Err() error { return o.Inv.Err() }

// RunFleet executes the scenario end to end on env, a fresh simulation,
// with its fault plan armed (an empty plan arms nothing) and the full
// fleet invariant probe set attached: sim event-time monotonicity,
// fabric capacity and byte conservation under mid-run capacity changes,
// chassis attach/detach conservation across hot-unplugs, orchestrator
// lifecycle and assignment exclusivity, no placement on a down slot or
// crashed host, the lost-work ledger, and the post-run structural checks.
// Callers that want event digests attach them to env first. A non-nil
// collector is attached to every layer of the run, and fault injections
// open blast-radius spans that close on repair; observation never moves
// the fingerprint, which covers the applied-fault ledger. A non-nil error
// means the scenario failed to compose or schedule; invariant violations
// are reported on the FleetOutcome.
func RunFleet(env *sim.Env, sc FleetScenario, c *obs.Collector) (*FleetOutcome, error) {
	if c != nil {
		c.Attach(env)
	}
	f, err := cluster.ComposeFleet(env, sc.fleetOptions())
	if err != nil {
		return nil, fmt.Errorf("scengen: compose %s: %w", sc.ID(), err)
	}
	if c != nil {
		f.AttachObs(c)
	}
	pol, err := orchestrator.PolicyByName(sc.Policy)
	if err != nil {
		return nil, fmt.Errorf("scengen: %s: %w", sc.ID(), err)
	}
	inv := invariant.New()
	inv.WatchEnv(env)
	inv.WatchNetwork(f.Net)
	inv.WatchFleet(f)
	res, err := orchestrator.Run(f, sc.Jobs, orchestrator.Options{
		Policy:        pol,
		AttachLatency: sc.AttachLatency,
		Probe:         inv.OrchestratorProbe(),
		Faults:        &sc.Plan,
		MaxRetries:    sc.MaxRetries,
		Obs:           c,
	})
	if err != nil {
		return nil, fmt.Errorf("scengen: fleet %s: %w", sc.ID(), err)
	}
	inv.CheckFleetResult(f, res)
	return &FleetOutcome{Scenario: sc, Result: res, Inv: inv, Fingerprint: res.Fingerprint()}, nil
}
