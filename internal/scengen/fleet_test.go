package scengen

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"composable/internal/faults"
	"composable/internal/orchestrator"
	"composable/internal/sim"
)

// fleetSweep runs the scenarios of seeds [base, base+n) on GOMAXPROCS
// workers, each twice end to end with the full invariant probe set. Both
// runs must hold every invariant and produce byte-identical fingerprints
// and event digests; the first run's pair is checked against the sweep's
// pins in testdata/<sweep>_fingerprints.txt.
func fleetSweep(t *testing.T, sweep string, base int64, n int, scenario func(seed int64) FleetScenario) {
	t.Helper()
	pins := newFingerprintPins(sweep)
	seeds := make(chan int64)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				sc := scenario(seed)
				env, digest := newSweepEnv()
				first, err := RunFleet(env, sc, nil)
				if err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				if err := first.Err(); err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				env2, digest2 := newSweepEnv()
				second, err := RunFleet(env2, sc, nil)
				if err != nil {
					fail("seed %d (%s): repeat: %v", seed, sc.ID(), err)
					continue
				}
				if err := second.Err(); err != nil {
					fail("seed %d (%s): repeat: %v", seed, sc.ID(), err)
					continue
				}
				pins.record(seed, first.Fingerprint, digest)
				if first.Fingerprint != second.Fingerprint {
					fail("seed %d (%s): two in-process %s runs diverged:\n--- first\n%s--- second\n%s",
						seed, sc.ID(), sweep, first.Fingerprint, second.Fingerprint)
				} else if digest.Sum() != digest2.Sum() {
					fail("seed %d (%s): two in-process %s runs dispatched different events", seed, sc.ID(), sweep)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		seeds <- base + int64(i)
	}
	close(seeds)
	wg.Wait()
	pins.check(t)
}

// TestFleetScenarioSweep is the fleet analog of TestScenarioSweep: the
// fleet scenarios of seeds 1–100, each run twice end to end with the
// full invariant probe set — sim/fabric conservation plus the
// orchestrator invariants (no double-assignment, attach/detach
// conservation, queue-lifecycle monotonicity). The two executions must
// produce byte-identical telemetry fingerprints.
func TestFleetScenarioSweep(t *testing.T) {
	fleetSweep(t, "fleet", 1, 100, FleetFromSeed)
}

// TestPodScenarioSweep extends the run-twice determinism tier to
// hierarchical fleets: the pod-shaped scenarios of seeds 1–100
// (multi-chassis, spine/leaf, oversubscribed uplinks, cross-chassis
// recomposition), each run twice with the full invariant probe set; the
// fingerprints must be byte-identical.
func TestPodScenarioSweep(t *testing.T) {
	fleetSweep(t, "pod", 1, 100, PodFleetFromSeed)
}

// podFaultsFromSeed is the pod fleet of PodFleetFromSeed with a fault
// plan drawn from a decoupled stream of the same seed, so the plan holds
// the pod-scoped kinds (pod power loss, spine-link degradation) next to
// the device and link faults.
func podFaultsFromSeed(seed int64) FleetScenario {
	sc := PodFleetFromSeed(seed)
	sc.Plan = PlanForFleet(seed^0x5eedFa017, sc)
	return SanitizeFleet(sc)
}

// TestPodFaultScenarioSweep is the fault sweep on pod fleets, seeds
// 1–100: the only sweep whose plans fail whole pods and degrade spine
// uplinks, so its pins cover the scheduler's pod-scoped recovery byte for
// byte.
func TestPodFaultScenarioSweep(t *testing.T) {
	const base, n = 1, 100
	kinds := make(map[faults.Kind]int)
	for i := 0; i < n; i++ {
		for _, e := range podFaultsFromSeed(base + int64(i)).Plan.Events {
			kinds[e.Kind]++
		}
	}
	if kinds[faults.KindPod] == 0 || kinds[faults.KindSpineLink] == 0 {
		t.Fatalf("%d seeds drew %d pod and %d spine-link faults; the sweep must exercise both",
			n, kinds[faults.KindPod], kinds[faults.KindSpineLink])
	}
	t.Logf("%d seeds: %d pod, %d spine-link, %d drawer, %d host, %d gpu faults", n,
		kinds[faults.KindPod], kinds[faults.KindSpineLink], kinds[faults.KindDrawer], kinds[faults.KindHost], kinds[faults.KindGPU])
	fleetSweep(t, "pod_fault", base, n, podFaultsFromSeed)
}

func TestPodFleetFromSeedDeterministic(t *testing.T) {
	crossChassis := false
	for seed := int64(1); seed <= 50; seed++ {
		a, b := PodFleetFromSeed(seed), PodFleetFromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: PodFleetFromSeed not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if !a.podShaped() || a.TotalGPUs() != a.GPUs*a.Pods*a.ChassisPerPod {
			t.Fatalf("seed %d: not pod-shaped: %+v", seed, a)
		}
		for _, j := range a.Jobs {
			if j.GPUs > a.GPUs {
				crossChassis = true // demand larger than one chassis
			}
		}
	}
	if !crossChassis {
		t.Error("no generated job ever overflows a single chassis; the sweep never exercises cross-chassis placement")
	}
}

func TestFleetFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FleetFromSeed(seed), FleetFromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: FleetFromSeed not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestSanitizeFleetIdempotentAndValid maps a raw fault-free scenario onto
// a valid one: sanitizing twice changes nothing, and the result runs
// clean.
func TestSanitizeFleetIdempotentAndValid(t *testing.T) {
	raw := FleetScenario{
		Hosts: 99, GPUs: -3, Policy: "nope", AttachLatency: -5,
		Jobs: []orchestrator.JobSpec{{GPUs: 40, Workload: "bogus", Tenant: 7}},
	}
	once := SanitizeFleet(raw)
	twice := SanitizeFleet(once)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("SanitizeFleet not idempotent:\n%+v\n%+v", once, twice)
	}
	if once.Hosts != 3 || once.GPUs < 2 || once.Policy != "drawer" {
		t.Errorf("bad clamps: %+v", once)
	}
	out, err := RunFleet(sim.NewEnv(), once, nil)
	if err != nil {
		t.Fatalf("sanitized scenario %s failed to run: %v", once.ID(), err)
	}
	if err := out.Err(); err != nil {
		t.Errorf("sanitized scenario %s: %v", once.ID(), err)
	}
}

func TestSanitizeFleetStaticFitsShares(t *testing.T) {
	sc := SanitizeFleet(FleetScenario{
		Hosts: 3, GPUs: 7, Policy: "static",
		Jobs: []orchestrator.JobSpec{
			{GPUs: 6, Tenant: 0, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2},
			{GPUs: 6, Tenant: 2, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2},
		},
	})
	if !sc.Preattach {
		t.Error("static scenario not preattached")
	}
	for _, j := range sc.Jobs {
		share := (sc.GPUs + sc.Hosts - 1 - j.Tenant) / sc.Hosts
		if j.GPUs > share {
			t.Errorf("tenant %d demand %d over share %d", j.Tenant, j.GPUs, share)
		}
	}
	out, err := RunFleet(sim.NewEnv(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Result.Recompositions != 0 {
		t.Errorf("static run recomposed %d times", out.Result.Recompositions)
	}
}
