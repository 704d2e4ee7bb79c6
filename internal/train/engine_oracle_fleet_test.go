package train_test

import (
	"testing"

	"composable/internal/scengen"
	"composable/internal/sim"
	"composable/internal/sim/simtest"
	"composable/internal/train"
)

// TestEngineOracleFleetSweeps drives both training engines through the
// orchestrator on the scengen fleet, pod and fault sweeps, seeds 1–20:
// every fleet run must dispatch the same event stream and reach the same
// fingerprint. Fault seeds exercise kills, aborted wind-downs and
// checkpoint restarts under fleet scheduling.
func TestEngineOracleFleetSweeps(t *testing.T) {
	sweeps := []struct {
		name     string
		scenario func(seed int64) scengen.FleetScenario
	}{
		{"fleet", scengen.FleetFromSeed},
		{"pod", scengen.PodFleetFromSeed},
		{"fault", scengen.FaultsFromSeed},
	}
	for _, sw := range sweeps {
		kills := 0
		for seed := int64(1); seed <= 20; seed++ {
			var gor, stp *scengen.FleetOutcome
			var gorEvents, stpEvents uint64
			goroutine := func(env *sim.Env) (err error) {
				restore := train.UseGoroutineEngine()
				defer restore()
				gor, err = scengen.RunFleet(env, sw.scenario(seed), nil)
				gorEvents = env.EventCount()
				return err
			}
			stepper := func(env *sim.Env) (err error) {
				stp, err = scengen.RunFleet(env, sw.scenario(seed), nil)
				stpEvents = env.EventCount()
				return err
			}
			if _, err := simtest.Compare(goroutine, stepper); err != nil {
				t.Fatalf("%s seed %d: goroutine vs stepper engine: %v", sw.name, seed, err)
			}
			if gorEvents != stpEvents {
				t.Fatalf("%s seed %d: sim.events: goroutine %d, stepper %d", sw.name, seed, gorEvents, stpEvents)
			}
			if gor.Fingerprint != stp.Fingerprint {
				t.Fatalf("%s seed %d: fingerprints differ:\n--- goroutine\n%s--- stepper\n%s", sw.name, seed, gor.Fingerprint, stp.Fingerprint)
			}
			if err := stp.Err(); err != nil {
				t.Fatalf("%s seed %d: invariants: %v", sw.name, seed, err)
			}
			kills += stp.Result.Kills
		}
		if sw.name == "fault" && kills == 0 {
			t.Fatal("fault sweep seeds 1–20 killed no job: the abort and restart paths went unchecked")
		}
	}
}
