package sim_test

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/scengen"
	"composable/internal/sim"
	"composable/internal/train"
)

// TestTrainingAndFleetWakeNoGoroutine proves the training engine and the
// orchestrator run entirely on the dispatching goroutine: a paper-train
// cell and a fault-sweep fleet run (with kills, aborts and restarts) start
// no goroutine-backed process and hand the baton to none.
func TestTrainingAndFleetWakeNoGoroutine(t *testing.T) {
	check := func(name string, env *sim.Env) {
		t.Helper()
		if env.EventCount() == 0 {
			t.Fatalf("%s: no events dispatched", name)
		}
		if spawns, wakes := sim.GoroutineCounts(env); spawns != 0 || wakes != 0 {
			t.Errorf("%s: %d goroutine processes spawned, %d goroutine wake-ups over %d events; want 0, 0",
				name, spawns, wakes, env.EventCount())
		}
	}

	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.HybridGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(sys, train.Options{
		Workload: dlmodel.BERTLargeWorkload(), Precision: gpu.FP16, Strategy: train.DDP,
		Epochs: 1, ItersPerEpoch: 12,
	}); err != nil {
		t.Fatal(err)
	}
	check("paper-train cell", env)

	for seed := int64(1); seed <= 50; seed++ {
		env := sim.NewEnv()
		out, err := scengen.RunFleet(env, scengen.FaultsFromSeed(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Kills == 0 {
			continue // want a run that exercises abort and resume
		}
		check("fault-sweep fleet seed "+out.Scenario.ID(), env)
		return
	}
	t.Fatal("no fault-sweep seed in 1..50 killed a job")
}
