package orchestrator

import (
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/train"
)

func testFleet(t *testing.T, hosts, gpus int, preattach bool) *cluster.FleetSystem {
	t.Helper()
	env := sim.NewEnv()
	f, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: hosts, GPUs: gpus, Preattach: preattach})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testStream() []JobSpec {
	return []JobSpec{
		{Arrival: 0, Tenant: 0, GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 3},
		{Arrival: 0, Tenant: 0, GPUs: 2, Workload: "BERT", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 3},
		{Arrival: 2 * time.Second, Tenant: 1, GPUs: 4, Workload: "MobileNetV2", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 3},
		{Arrival: 3 * time.Second, Tenant: 1, GPUs: 2, Workload: "ResNet-50", Precision: gpu.FP32, Epochs: 1, ItersPerEpoch: 2},
	}
}

func TestFleetRunCompletesAllJobs(t *testing.T) {
	for _, p := range Policies() {
		if p.Name() == "static" {
			continue // needs preattach; covered separately
		}
		t.Run(p.Name(), func(t *testing.T) {
			f := testFleet(t, 2, 8, false)
			res, err := Run(f, testStream(), Options{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != 4 {
				t.Fatalf("got %d job results, want 4", len(res.Jobs))
			}
			for _, j := range res.Jobs {
				if j.Finished <= j.Launched || j.Launched < j.Placed || j.Placed < j.Arrival {
					t.Errorf("job %d lifecycle out of order: %+v", j.ID, j)
				}
				if j.Train == nil || j.Train.TotalTime <= 0 {
					t.Errorf("job %d has no training result", j.ID)
				}
			}
			if res.Makespan <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
				t.Errorf("bad aggregates: makespan %v util %v", res.Makespan, res.Utilization)
			}
			// A cold (fully detached) fleet must recompose at least once
			// per job's first placement.
			if res.Recompositions == 0 {
				t.Error("cold fleet ran without a single recomposition")
			}
		})
	}
}

func TestFleetRunDeterministic(t *testing.T) {
	run := func() string {
		f := testFleet(t, 3, 12, false)
		res, err := Run(f, testStream(), Options{Policy: DrawerLocal{}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical fleet runs diverged:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestStaticPolicyNeverRecomposes(t *testing.T) {
	f := testFleet(t, 2, 8, true)
	res, err := Run(f, testStream(), Options{Policy: Static{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recompositions != 0 {
		t.Fatalf("static partition recomposed %d times", res.Recompositions)
	}
	for _, j := range res.Jobs {
		if j.Host != j.Tenant {
			t.Errorf("job %d ran on host %d, not its tenant %d", j.ID, j.Host, j.Tenant)
		}
	}
}

func TestStaticPolicyOnDetachedFleetIsUnplaceable(t *testing.T) {
	f := testFleet(t, 2, 8, false)
	_, err := Run(f, testStream(), Options{Policy: Static{}})
	if err == nil || !strings.Contains(err.Error(), "unplaceable") {
		t.Fatalf("err = %v, want unplaceable", err)
	}
}

// TestObservedStrandedRunReturns traces a run whose policy strands a
// job: an 8-GPU job cannot fit any 4-GPU static share of a preattached
// 3-host fleet. The run must end with the same unplaceable error as an
// untraced one; the metric sampler must not keep the drained queue alive.
func TestObservedStrandedRunReturns(t *testing.T) {
	env := sim.NewEnv()
	col := obs.NewCollector()
	col.Attach(env)
	f, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 3, GPUs: 12, Preattach: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(f, []JobSpec{{GPUs: 8, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 2}},
		Options{Policy: Static{}, Obs: col})
	if err == nil || !strings.Contains(err.Error(), "left job(s) 0 unplaceable") {
		t.Fatalf("err = %v, want job 0 unplaceable", err)
	}
}

func TestOversizedDemandIsClamped(t *testing.T) {
	f := testFleet(t, 2, 4, false)
	res, err := Run(f, []JobSpec{
		{GPUs: 99, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 2},
		{GPUs: 0, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].GPUs != 4 || res.Jobs[1].GPUs != 2 {
		t.Fatalf("demands not clamped: %d, %d", res.Jobs[0].GPUs, res.Jobs[1].GPUs)
	}
}

// badPolicy double-assigns the same slot to every job.
type badPolicy struct{}

func (badPolicy) Name() string { return "bad" }
func (badPolicy) Place(v View, r Request) (int, []int, bool) {
	slots := make([]int, r.GPUs)
	return 0, slots, true // slot 0 repeated
}

func TestSchedulerRejectsDoubleAssignment(t *testing.T) {
	f := testFleet(t, 2, 8, false)
	_, err := Run(f, testStream()[:1], Options{Policy: badPolicy{}})
	if err == nil || !strings.Contains(err.Error(), "invalid/duplicate") {
		t.Fatalf("err = %v, want duplicate-slot rejection", err)
	}
}

func TestAttachLatencyDelaysLaunch(t *testing.T) {
	stream := testStream()[:1]
	run := func(latency time.Duration) *FleetResult {
		f := testFleet(t, 2, 8, false)
		res, err := Run(f, stream, Options{Policy: FirstFit{}, AttachLatency: latency})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow := run(5 * time.Second)
	free := run(-1) // negative = free recomposition
	j := slow.Jobs[0]
	wantDelay := 5 * time.Second * time.Duration(j.Moves)
	if j.Moves == 0 || j.Launched-j.Placed != wantDelay {
		t.Errorf("launch delay %v for %d moves, want %v", j.Launched-j.Placed, j.Moves, wantDelay)
	}
	if f := free.Jobs[0]; f.Launched != f.Placed {
		t.Errorf("free recomposition still delayed launch by %v", f.Launched-f.Placed)
	}
}

func TestSanitizeSpec(t *testing.T) {
	spec := JobSpec{
		Arrival: -time.Second, Tenant: 9, GPUs: 1,
		Workload: "no-such-model", Strategy: "weird", Sharded: true,
		Epochs: 99, ItersPerEpoch: 0, BatchPerGPU: 1 << 20,
	}
	got := spec.Sanitize(8, 2, gpu.TeslaV100PCIe)
	if got.Arrival != 0 || got.Tenant != 1 || got.GPUs != 2 {
		t.Errorf("bad clamps: %+v", got)
	}
	if got.Workload != "ResNet-50" || got.Strategy != train.DDP {
		t.Errorf("bad fallbacks: %+v", got)
	}
	if got.Epochs != 8 || got.ItersPerEpoch != 1 {
		t.Errorf("bad run-length clamps: %+v", got)
	}
	if got.BatchPerGPU < 1 || got.BatchPerGPU >= 1<<20 {
		t.Errorf("batch not fitted: %d", got.BatchPerGPU)
	}
	if again := got.Sanitize(8, 2, gpu.TeslaV100PCIe); again != got {
		t.Errorf("Sanitize not idempotent:\n%+v\n%+v", got, again)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDrawerLocalPacksOneDrawer(t *testing.T) {
	f := testFleet(t, 2, 16, false) // both drawers populated
	res, err := Run(f, []JobSpec{
		{GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 2},
	}, Options{Policy: DrawerLocal{}})
	if err != nil {
		t.Fatal(err)
	}
	drawer := res.Jobs[0].Slots[0].Drawer
	for _, ref := range res.Jobs[0].Slots {
		if ref.Drawer != drawer {
			t.Fatalf("drawer-local placement spans drawers: %v", res.Jobs[0].Slots)
		}
	}
}

func TestBandwidthAwareSpreadsDrawers(t *testing.T) {
	f := testFleet(t, 2, 16, false)
	res, err := Run(f, []JobSpec{
		{GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 1, ItersPerEpoch: 2},
	}, Options{Policy: BandwidthAware{}})
	if err != nil {
		t.Fatal(err)
	}
	perDrawer := map[int]int{}
	for _, ref := range res.Jobs[0].Slots {
		perDrawer[ref.Drawer]++
	}
	if perDrawer[0] != 2 || perDrawer[1] != 2 {
		t.Fatalf("bandwidth-aware placement not balanced: %v", res.Jobs[0].Slots)
	}
}
