package perfbench

import (
	"runtime"
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
// at its measured count plus ~10% via allocsAndBytesPerRun.
func TestFleetScheduleAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs full fleet ops")
	}
	allocs, bytes := allocsAndBytesPerRun(5, func() { runFleetScheduleOnce(t) })
	if allocs > fleetScheduleAllocCeiling {
		t.Errorf("fleet-schedule op allocates %d objects, ceiling %d (%s)",
			allocs, fleetScheduleAllocCeiling, fleetScheduleBytesPerOpNotes)
	}
	t.Logf("fleet-schedule op allocates %d objects, %d bytes", allocs, bytes)
}

// TestFaultsRecoverAllocGate pins the fault-recovery op's allocation
// count, same scheme as TestFleetScheduleAllocGate.
func TestFaultsRecoverAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs full fleet ops")
	}
	allocs, bytes := allocsAndBytesPerRun(5, func() { runFaultsRecoverOnce(t) })
	if allocs > faultsRecoverAllocCeiling {
		t.Errorf("faults-recover op allocates %d objects, ceiling %d (%s)",
			allocs, faultsRecoverAllocCeiling, fleetScheduleBytesPerOpNotes)
	}
	t.Logf("faults-recover op allocates %d objects, %d bytes", allocs, bytes)
}

// composePodAllocCeiling and composePodBytesCeiling gate composing the
// 1024-GPU pod fleet: the measured 4,381 allocations and 636,488 bytes of
// a compose that builds no device model (JobSystem creates them on first
// use), defers the routing adjacency to the first search and gives each
// chassis one traffic source, plus ~10%. The count was 10,150 (measured
// 9,227, 1,089,502 bytes) while compose built a GPU model per slot and a
// CPU, store and page cache per host, kept one adjacency list per node
// and one traffic closure per slot; 10,500 (measured 9,544) while each
// chassis grew its event log from empty; the eagerly formatting compose
// path made 28,228.
const (
	composePodAllocCeiling = 4820
	composePodBytesCeiling = 700000
)

// TestComposePodAllocGate pins the allocation count and bytes of the
// cluster/compose-pod op, same scheme as TestFleetScheduleAllocGate: a
// chassis log that formats on the way in, a name built with fmt, an
// unreserved fabric graph or device models built at compose push it over
// a ceiling.
func TestComposePodAllocGate(t *testing.T) {
	allocs, bytes := allocsAndBytesPerRun(5, func() {
		if _, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > composePodAllocCeiling {
		t.Errorf("composing the pod fleet allocates %d objects, ceiling %d", allocs, composePodAllocCeiling)
	}
	if bytes > composePodBytesCeiling {
		t.Errorf("composing the pod fleet allocates %d bytes, ceiling %d", bytes, composePodBytesCeiling)
	}
	t.Logf("composing the pod fleet allocates %d objects, %d bytes", allocs, bytes)
}

// routePodAllocCeiling and routePodBytesCeiling gate routing on a fresh
// pod fleet: every GPU i→i+1 ring pair and each host's DRAM to every GPU
// of its own chassis, 3,072 cold routes, counted as compose plus routing
// minus compose alone. The ceilings are the measured 40 allocations and
// 281,179 bytes, with each route cached as a 16-byte entry and its path
// carved from a shared block of 4-byte direction handles, plus ~10%. The
// same routes made 4,755 allocations and 499,946 bytes while the cache
// kept a row of 32-byte entries per source and one heap slice of 16-byte
// hops per path.
const (
	routePodAllocCeiling = 43
	routePodBytesCeiling = 310000
)

// TestRoutePodAllocGate pins what routing the pod fleet allocates, same
// scheme as TestComposePodAllocGate: a path allocated per route, a row per
// source or a wider hop handle pushes it over a ceiling.
func TestRoutePodAllocGate(t *testing.T) {
	compose := func() *cluster.FleetSystem {
		fleet, err := cluster.ComposeFleet(sim.NewEnv(), PodFleetOptions())
		if err != nil {
			t.Fatal(err)
		}
		return fleet
	}
	route := func() {
		fleet := compose()
		net := fleet.Net
		for i, s := range fleet.Slots {
			if _, err := net.Route(s.Node, fleet.Slots[(i+1)%len(fleet.Slots)].Node); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range fleet.Hosts {
			for _, s := range fleet.Slots {
				if s.ChassisIdx != h.ChassisIdx {
					continue
				}
				if _, err := net.Route(h.Mem, s.Node); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	composeAllocs, composeBytes := allocsAndBytesPerRun(5, func() { compose() })
	allocs, bytes := allocsAndBytesPerRun(5, route)
	allocs, bytes = allocs-composeAllocs, bytes-composeBytes
	if allocs > routePodAllocCeiling {
		t.Errorf("routing the pod fleet allocates %d objects, ceiling %d", allocs, routePodAllocCeiling)
	}
	if bytes > routePodBytesCeiling {
		t.Errorf("routing the pod fleet allocates %d bytes, ceiling %d", bytes, routePodBytesCeiling)
	}
	t.Logf("routing the pod fleet allocates %d objects, %d bytes", allocs, bytes)
}

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the
// bytes allocated: the average over runs calls of fn, after one warm-up
// call, on one P so other goroutines add as little as possible.
func allocsAndBytesPerRun(runs int, fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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
	allocs, bytes := allocsAndBytesPerRun(5, relaunch)
	if allocs > relaunchAllocCeiling {
		t.Errorf("relaunch allocates %d objects, ceiling %d", allocs, relaunchAllocCeiling)
	}
	t.Logf("relaunch allocates %d objects, %d bytes", allocs, bytes)
}
