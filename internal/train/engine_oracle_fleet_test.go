package train_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/orchestrator"
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

// TestRecycledEngineOracle drives the orchestrator twice over every
// scenario: once with engines, samplers and job views recycled through
// its launcher, once with a launcher whose Release keeps nothing, so that
// every attempt builds its engine, its sampler and its job view anew. The
// scenarios are the pod-fault sweep's 100 seeds, fault plans shaped like
// the chassis-faults benchmark (150 jobs on one 16-GPU chassis under a
// 4 s MTBF, where kills and relaunches recycle engines of every width),
// and a queue that relaunches at the instant a job finishes, while the
// finished job's sampler still has a tick pending. Both runs must
// dispatch the same event stream and reach the same fingerprint.
func TestRecycledEngineOracle(t *testing.T) {
	check := func(name string, sc scengen.FleetScenario) int {
		t.Helper()
		var fresh, recycled *scengen.FleetOutcome
		freshRun := func(env *sim.Env) (err error) {
			restore := train.UseFreshEngines()
			defer restore()
			fresh, err = scengen.RunFleet(env, sc, nil)
			return err
		}
		recycledRun := func(env *sim.Env) (err error) {
			recycled, err = scengen.RunFleet(env, sc, nil)
			return err
		}
		if _, err := simtest.Compare(freshRun, recycledRun); err != nil {
			t.Fatalf("%s: fresh vs recycled engines: %v", name, err)
		}
		if fresh.Fingerprint != recycled.Fingerprint {
			t.Fatalf("%s: fingerprints differ:\n--- fresh\n%s--- recycled\n%s", name, fresh.Fingerprint, recycled.Fingerprint)
		}
		if err := recycled.Err(); err != nil {
			t.Fatalf("%s: invariants: %v", name, err)
		}
		return recycled.Result.Kills
	}
	podKills := 0
	for seed := int64(1); seed <= 100; seed++ {
		sc := scengen.PodFleetFromSeed(seed)
		sc.Plan = scengen.PlanForFleet(seed^0x5eedFa017, sc)
		podKills += check(fmt.Sprintf("pod-fault seed %d", seed), scengen.SanitizeFleet(sc))
	}
	chassisKills := 0
	for seed := int64(1); seed <= 3; seed++ {
		chassisKills += check(fmt.Sprintf("chassis-faults seed %d", seed), chassisFaultsScenario(seed))
	}
	check("same-instant relaunch", sameInstantRelaunchScenario())
	if podKills == 0 || chassisKills == 0 {
		t.Fatalf("kills: pod-fault %d, chassis-faults %d; the relaunch paths went unchecked", podKills, chassisKills)
	}
	t.Logf("kills: pod-fault seeds 1–100 %d, chassis-faults seeds 1–3 %d", podKills, chassisKills)
}

// chassisFaultsScenario is a fault scenario shaped like the chassis-faults
// benchmark: 150 jobs of 2–8 GPUs arriving on average every 2 s on one
// chassis of 16 GPUs and 3 hosts, under an MTBF fault plan of 4 s that
// may kill up to 4 GPUs for good.
func chassisFaultsScenario(seed int64) scengen.FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	const gap = 2 * time.Second
	models := [...]string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]orchestrator.JobSpec, 150)
	for i := range jobs {
		jobs[i] = orchestrator.JobSpec{
			GPUs: 2 + i%7, Workload: models[i%3], Epochs: 1 + i%2, ItersPerEpoch: 1 + i%3,
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	at := make([]time.Duration, len(jobs))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(len(jobs)) * int64(gap)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := range jobs {
		jobs[i].Arrival = at[i]
		jobs[i].Tenant = rng.Intn(3)
	}
	plan := faults.PlanMTBF(rng.Int63(), 4*time.Second, faults.Bounds{
		Slots: 16, SlotsPerDrawer: falcon.SlotsPerDrawer, Hosts: 3,
		Horizon: time.Duration(len(jobs)) * gap, MaxPermanentGPUs: 4,
	})
	return scengen.FleetScenario{
		Seed: seed, Hosts: 3, GPUs: 16,
		Policy: orchestrator.DrawerLocal{}.Name(), Jobs: jobs, Plan: plan,
	}
}

// sameInstantRelaunchScenario queues twelve jobs at time zero on one host
// of four GPUs with free recomposition: once the first placements have
// attached the slots, every finish frees slots that the next queued job
// takes with no move, so it launches at the instant its predecessor's
// Done fires — before the predecessor's sampler has fired its last tick.
func sameInstantRelaunchScenario() scengen.FleetScenario {
	models := [...]string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]orchestrator.JobSpec, 12)
	for i := range jobs {
		jobs[i] = orchestrator.JobSpec{
			GPUs: 2 + i%3, Workload: models[i%3], Epochs: 1 + i%2, ItersPerEpoch: 1 + i%3, Tenant: i % 2,
		}
	}
	return scengen.SanitizeFleet(scengen.FleetScenario{
		Seed: 1, Hosts: 1, GPUs: 4, AttachLatency: -1,
		Policy: orchestrator.DrawerLocal{}.Name(), Jobs: jobs,
	})
}
