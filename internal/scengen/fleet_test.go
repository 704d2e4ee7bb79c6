package scengen

import (
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"composable/internal/orchestrator"
)

// fleetSweepParams reads the fleet sweep shape from the environment so CI
// can pin the seed and scale the scenario count without code changes.
func fleetSweepParams(t *testing.T) (base int64, n int) {
	base, n = 1, 100
	if s := os.Getenv("FLEET_SWEEP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FLEET_SWEEP_SEED: %v", err)
		}
		base = v
	}
	if s := os.Getenv("FLEET_SWEEP_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("FLEET_SWEEP_N: bad value %q", s)
		}
		n = v
	}
	return base, n
}

// TestFleetScenarioSweep is the fleet analog of TestScenarioSweep: N
// seeded fleet scenarios (default 100, override via FLEET_SWEEP_N /
// FLEET_SWEEP_SEED), each run twice end to end with the full invariant
// probe set — sim/fabric conservation plus the orchestrator invariants
// (no double-assignment, attach/detach conservation, queue-lifecycle
// monotonicity). The two executions must produce byte-identical telemetry
// fingerprints.
func TestFleetScenarioSweep(t *testing.T) {
	base, n := fleetSweepParams(t)
	pins := newFingerprintPins("fleet")

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
				sc := FleetFromSeed(seed)
				env, digest := newSweepEnv()
				first, err := RunFleetOn(env, sc, nil)
				if err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				if err := first.Err(); err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				env2, digest2 := newSweepEnv()
				second, err := RunFleetOn(env2, sc, nil)
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
					fail("seed %d (%s): two in-process fleet runs diverged:\n--- first\n%s--- second\n%s",
						seed, sc.ID(), first.Fingerprint, second.Fingerprint)
				} else if digest.Sum() != digest2.Sum() {
					fail("seed %d (%s): two in-process fleet runs dispatched different events", seed, sc.ID())
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

// podSweepParams reads the pod sweep shape from the environment (CI pins
// the seed and bounds the count via POD_SWEEP_SEED / POD_SWEEP_N).
func podSweepParams(t *testing.T) (base int64, n int) {
	base, n = 1, 100
	if s := os.Getenv("POD_SWEEP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("POD_SWEEP_SEED: %v", err)
		}
		base = v
	}
	if s := os.Getenv("POD_SWEEP_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("POD_SWEEP_N: bad value %q", s)
		}
		n = v
	}
	return base, n
}

// TestPodScenarioSweep extends the run-twice determinism tier to
// hierarchical fleets: N seeded pod-shaped scenarios (multi-chassis,
// spine/leaf, oversubscribed uplinks, cross-chassis recomposition), each
// run twice with the full invariant probe set; the fingerprints must be
// byte-identical.
func TestPodScenarioSweep(t *testing.T) {
	base, n := podSweepParams(t)
	pins := newFingerprintPins("pod")

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
				sc := PodFleetFromSeed(seed)
				env, digest := newSweepEnv()
				first, err := RunFleetOn(env, sc, nil)
				if err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				if err := first.Err(); err != nil {
					fail("seed %d (%s): %v", seed, sc.ID(), err)
					continue
				}
				env2, digest2 := newSweepEnv()
				second, err := RunFleetOn(env2, sc, nil)
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
					fail("seed %d (%s): two in-process pod fleet runs diverged:\n--- first\n%s--- second\n%s",
						seed, sc.ID(), first.Fingerprint, second.Fingerprint)
				} else if digest.Sum() != digest2.Sum() {
					fail("seed %d (%s): two in-process pod fleet runs dispatched different events", seed, sc.ID())
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
	if _, err := RunFleet(once); err != nil {
		t.Errorf("sanitized scenario failed to run: %v", err)
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
	out, err := RunFleet(sc)
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
