package scengen

import (
	"reflect"
	"testing"

	"composable/internal/faults"
	"composable/internal/orchestrator"
	"composable/internal/sim"
)

// TestFaultScenarioSweep is the fault analog of TestFleetScenarioSweep:
// the fault scenarios of seeds 1–100, each run twice end to end with the
// full invariant probe set — sim/fabric conservation under mid-run
// capacity changes, chassis attach/detach conservation across
// hot-unplugs, kill/requeue lifecycle legality, no placement on down
// hardware, and the lost-work ledger. The two executions must produce
// byte-identical telemetry fingerprints, applied-fault ledger included.
func TestFaultScenarioSweep(t *testing.T) {
	fleetSweep(t, "fault", 1, 100, FaultsFromSeed)
}

func TestFaultsFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FaultsFromSeed(seed), FaultsFromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: FaultsFromSeed not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestFaultsFromSeedActuallyInjects(t *testing.T) {
	// The sweep would be vacuous if seeded plans were mostly empty or the
	// faults never landed; require that a healthy share of seeds produce
	// fault activity inside the run.
	withFaults, withKills := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := FaultsFromSeed(seed)
		if len(sc.Plan.Events) == 0 {
			continue
		}
		out, err := RunFleet(sim.NewEnv(), sc, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Result.Faults > 0 {
			withFaults++
		}
		if out.Result.Kills > 0 {
			withKills++
		}
	}
	if withFaults < 15 {
		t.Errorf("only %d/20 seeds injected faults", withFaults)
	}
	if withKills == 0 {
		t.Error("no seed produced a single kill: the recovery path is never exercised")
	}
}

// TestSanitizeFaultsIdempotentAndValid maps a raw faulty scenario, with
// out-of-range fault events and a negative retry budget, onto a valid
// one: sanitizing twice changes nothing, and the result runs clean.
func TestSanitizeFaultsIdempotentAndValid(t *testing.T) {
	raw := FleetScenario{
		Hosts: 99, GPUs: -3, Policy: "nope",
		Jobs: []orchestrator.JobSpec{{GPUs: 40, Workload: "bogus", Tenant: 7}},
		Plan: faults.Plan{Events: []faults.Event{
			{At: -1, Kind: faults.KindGPU, Target: 400},
			{At: 1, Kind: "gibberish", Target: -2},
		}},
		MaxRetries: -5,
	}
	once := SanitizeFleet(raw)
	twice := SanitizeFleet(once)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("SanitizeFleet not idempotent:\n%+v\n%+v", once, twice)
	}
	out, err := RunFleet(sim.NewEnv(), once, nil)
	if err != nil {
		t.Fatalf("sanitized fault scenario %s failed to run: %v", once.ID(), err)
	}
	if err := out.Err(); err != nil {
		t.Errorf("sanitized fault scenario %s: %v", once.ID(), err)
	}
}

// TestNegativeMaxRetriesMeansNoRetries checks that a negative retry
// budget survives SanitizeFleet as "no retries": a host crash under the
// only job abandons it at the first kill, where the default budget lets
// it recover.
func TestNegativeMaxRetriesMeansNoRetries(t *testing.T) {
	fleet := FleetScenario{Hosts: 1, GPUs: 8, Policy: "drawer", AttachLatency: -1,
		Jobs: []orchestrator.JobSpec{{GPUs: 4, Workload: "ResNet-50", Epochs: 2, ItersPerEpoch: 8}}}
	base, err := RunFleet(sim.NewEnv(), SanitizeFleet(fleet), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Events: []faults.Event{
		{At: base.Result.Makespan / 2, Kind: faults.KindHost, Target: 0, Repair: base.Result.Makespan},
	}}
	for _, tc := range []struct {
		retries, sanitized int
		failed             bool
	}{
		{-5, -1, true},
		{0, 0, false},
	} {
		sc := fleet
		sc.Plan, sc.MaxRetries = plan, tc.retries
		sc = SanitizeFleet(sc)
		if sc.MaxRetries != tc.sanitized {
			t.Errorf("MaxRetries %d sanitized to %d, want %d", tc.retries, sc.MaxRetries, tc.sanitized)
		}
		out, err := RunFleet(sim.NewEnv(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Err(); err != nil {
			t.Fatal(err)
		}
		j := out.Result.Jobs[0]
		if j.Failed != tc.failed || j.Retries != 1 {
			t.Errorf("MaxRetries %d: job failed %v after %d kills, want failed %v after 1", tc.retries, j.Failed, j.Retries, tc.failed)
		}
	}
}

func TestStaticFaultScenariosAlwaysHeal(t *testing.T) {
	sc := SanitizeFleet(FleetScenario{Hosts: 3, GPUs: 12, Policy: "static",
		Jobs: []orchestrator.JobSpec{{GPUs: 2, Workload: "ResNet-50", Epochs: 1, ItersPerEpoch: 2}},
		Plan: faults.Plan{Events: []faults.Event{
			{At: 1, Kind: faults.KindGPU, Target: 0}, // permanent in the raw plan
		}},
	})
	for _, e := range sc.Plan.Events {
		if e.Kind == faults.KindGPU && e.Permanent() {
			t.Fatalf("static scenario kept a permanent device fault: %+v", e)
		}
	}
	out, err := RunFleet(sim.NewEnv(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
}
