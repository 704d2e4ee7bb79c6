package perfbench

import (
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/train"
)

// Steady-state allocation ceilings for the two fleet-path benchmarks:
// the measured 812 and 780 allocations of a run whose attempts recycle
// their training engines, samplers, job views and completion watchers,
// plus ~10%. They were 1,050 and 930 (measured 958 and 848) while every
// attempt built its sampler, job view and watcher anew, 1,480 and 1,100
// (measured 1,348 and 1,003) while it built its engine anew too, and
// 3,391 and 4,161, the allocation-free fleet pass's 10x targets, until
// collective ops stopped allocating. A change that drifts allocations
// back up fails here.
const (
	fleetScheduleAllocCeiling    = 895
	faultsRecoverAllocCeiling    = 860
	fleetScheduleBytesPerOpNotes = "see BENCH_PR7.json for the full record"
)

func runFleetScheduleOnce(t testing.TB) {
	stream := fleetScheduleStream()
	env := sim.NewEnv()
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 3, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrator.Run(fleet, stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(stream) {
		t.Fatal("incomplete fleet run")
	}
}

func runFaultsRecoverOnce(t testing.TB) {
	stream := []orchestrator.JobSpec{
		{Arrival: 0, Tenant: 0, GPUs: 4, Workload: "ResNet-50", Epochs: 4, ItersPerEpoch: 6},
		{Arrival: time.Second, Tenant: 1, GPUs: 2, Workload: "MobileNetV2", Epochs: 1, ItersPerEpoch: 4},
	}
	plan := faults.Plan{Events: []faults.Event{
		{At: 2 * time.Second, Kind: faults.KindGPU, Target: 0, Repair: 500 * time.Millisecond},
	}}
	env := sim.NewEnv()
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 2, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrator.Run(fleet, stream, orchestrator.Options{
		Policy: orchestrator.DrawerLocal{}, AttachLatency: -1, Faults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Fatal("gate fault never killed: not measuring recovery")
	}
}

// TestFleetScheduleAllocGate pins the fleet-schedule op's allocation
// count: the same op body BenchOrchestratorFleetSchedule measures, gated
// at its measured count plus ~10% via testing.AllocsPerRun.
func TestFleetScheduleAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs full fleet ops")
	}
	allocs := testing.AllocsPerRun(5, func() { runFleetScheduleOnce(t) })
	if allocs > fleetScheduleAllocCeiling {
		t.Errorf("fleet-schedule op allocates %.0f objects, ceiling %d (%s)",
			allocs, fleetScheduleAllocCeiling, fleetScheduleBytesPerOpNotes)
	}
	t.Logf("fleet-schedule op allocates %.0f objects", allocs)
}

// TestFaultsRecoverAllocGate pins the fault-recovery op's allocation
// count, same scheme as TestFleetScheduleAllocGate.
func TestFaultsRecoverAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs full fleet ops")
	}
	allocs := testing.AllocsPerRun(5, func() { runFaultsRecoverOnce(t) })
	if allocs > faultsRecoverAllocCeiling {
		t.Errorf("faults-recover op allocates %.0f objects, ceiling %d (%s)",
			allocs, faultsRecoverAllocCeiling, fleetScheduleBytesPerOpNotes)
	}
	t.Logf("faults-recover op allocates %.0f objects", allocs)
}

// composePodAllocCeiling gates composing the 1024-GPU pod fleet: the
// measured 9,227 allocations of the fmt-free, presized compose path plus
// ~10%. It was 10,500 (measured 9,544) while each chassis grew its event
// log from empty; the eagerly formatting compose path made 28,228.
const composePodAllocCeiling = 10150

// TestComposePodAllocGate pins the allocation count of the
// cluster/compose-pod op, same scheme as TestFleetScheduleAllocGate: a
// chassis log that formats on the way in, a name built with fmt or an
// unreserved fabric graph pushes it over the ceiling.
func TestComposePodAllocGate(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > composePodAllocCeiling {
		t.Errorf("composing the pod fleet allocates %.0f objects, ceiling %d", allocs, composePodAllocCeiling)
	}
	t.Logf("composing the pod fleet allocates %.0f objects", allocs)
}

// relaunchAllocCeiling gates one relaunch on a warm fleet: a 4-GPU job
// whose predecessor of the same width finished and was released starts
// on the job view the launcher handed back, refilled for the same slots,
// runs and is collected. A relaunch that takes the released engine and
// sampler makes 3 allocations, the Job handle, the Result and its epoch
// times; the ceiling is the next count up. It was 43 (measured 39) while
// the sampler and the job view were built anew for every relaunch, and a
// relaunch that builds its engine anew too makes 114.
const relaunchAllocCeiling = 4

// TestRelaunchAllocGate pins the allocation count of relaunching on a
// warm fleet, same scheme as TestFleetScheduleAllocGate.
func TestRelaunchAllocGate(t *testing.T) {
	env := sim.NewEnv()
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 1, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	host, slots := fleet.Hosts[0], fleet.Slots[:4]
	for _, s := range slots {
		if err := fleet.AttachSlot(s, host); err != nil {
			t.Fatal(err)
		}
	}
	opts := train.Options{
		Workload: dlmodel.ResNet50Workload(), Precision: gpu.FP16, Strategy: train.DDP,
		Epochs: 1, ItersPerEpoch: 2,
	}
	var l train.Launcher
	var sys *cluster.System
	relaunch := func() {
		job, err := l.Start(fleet.JobSystem(sys, host, slots, "relaunch"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Collect(); err != nil {
			t.Fatal(err)
		}
		sys = l.Release(job)
	}
	relaunch() // the first launch builds the engine
	allocs := testing.AllocsPerRun(5, relaunch)
	if allocs > relaunchAllocCeiling {
		t.Errorf("relaunch allocates %.0f objects, ceiling %d", allocs, relaunchAllocCeiling)
	}
	t.Logf("relaunch allocates %.0f objects", allocs)
}
