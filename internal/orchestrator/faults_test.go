package orchestrator

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/sim"
)

// longJob is a single 4-GPU job long enough for mid-run faults to land.
func longJob(epochs int) []JobSpec {
	return []JobSpec{{
		Tenant: 0, GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16,
		Epochs: epochs, ItersPerEpoch: 8,
	}}
}

// faultFreeMakespan measures the baseline so fault times can be placed
// mid-run deterministically.
func faultFreeMakespan(t *testing.T, specs []JobSpec) time.Duration {
	t.Helper()
	f := testFleet(t, 2, 8, false)
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

func TestGPUFaultKillsAndReschedulesFromCheckpoint(t *testing.T) {
	specs := longJob(4)
	base := faultFreeMakespan(t, specs)

	f := testFleet(t, 2, 8, false)
	plan := faults.Plan{Events: []faults.Event{
		// Kill a GPU the drawer-local policy definitely picked (slot 0,
		// lowest index) mid-run; it never comes back.
		{At: base / 2, Kind: faults.KindGPU, Target: 0},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (fault at %v of %v run)", j.Retries, base/2, base)
	}
	if j.Failed {
		t.Fatal("job failed despite retry budget")
	}
	if j.EpochsDone == 0 {
		t.Error("no checkpointed epochs carried across the kill (restart from scratch)")
	}
	if j.LostGPUSeconds <= 0 {
		t.Error("kill mid-epoch lost no work")
	}
	if res.Kills != 1 || res.Faults != 1 || res.LostGPUSeconds != j.LostGPUSeconds {
		t.Errorf("fleet fault aggregates wrong: %+v", res)
	}
	// The failed slot is blacklisted: the retry must avoid slot 0.
	for _, ref := range j.Slots {
		if ref == f.Slots[0].Ref {
			t.Errorf("retry placed on the failed slot %v", ref)
		}
	}
	if res.Makespan <= base {
		t.Errorf("faulty makespan %v not beyond fault-free %v", res.Makespan, base)
	}
	if j.EpochsDone >= 4 {
		// Sanity on the ledger: carried epochs below total means the final
		// attempt did real work.
		t.Errorf("carried epochs %d should be below total 4", j.EpochsDone)
	}
}

func TestGPURepairRestoresCapacity(t *testing.T) {
	// 2 hosts × 4 GPUs and a 4-GPU job: after one GPU fails the job can
	// only run again once the repair lands.
	specs := longJob(2)
	base := faultFreeMakespan(t, specs)
	f := testFleet(t, 2, 4, false)
	repair := 2 * base // well past anything else
	plan := faults.Plan{Events: []faults.Event{
		{At: base / 2, Kind: faults.KindGPU, Target: 1, Repair: repair},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Failed || j.Retries != 1 {
		t.Fatalf("job %+v, want one clean retry", j)
	}
	// The retry needed all 4 GPUs, so it could only launch after the
	// repair.
	if j.Launched < base/2+repair {
		t.Errorf("job relaunched at %v, before the repair at %v", j.Launched, base/2+repair)
	}
}

func TestHostCrashKillsAndOtherHostServes(t *testing.T) {
	specs := longJob(2)
	base := faultFreeMakespan(t, specs)
	f := testFleet(t, 2, 8, false)
	plan := faults.Plan{Events: []faults.Event{
		// The drawer policy places the first job on host 0 (least loaded,
		// lowest index). Crash it mid-run; it stays down a long time, so
		// the retry must land on host 1.
		{At: base / 2, Kind: faults.KindHost, Target: 0, Repair: 10 * base},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Retries != 1 || j.Failed {
		t.Fatalf("want one retry after host crash, got %+v", j)
	}
	if j.Host != 1 {
		t.Errorf("retry placed on host %d, want the surviving host 1", j.Host)
	}
	if !strings.Contains(j.FailureCause, "host1 crashed") {
		t.Errorf("cause = %q", j.FailureCause)
	}
}

func TestDrawerUnplugStaticTenantWaitsForReplug(t *testing.T) {
	// Static partition on 2 hosts × 4 GPUs (all slots in drawer 0).
	// Unplugging drawer 0 kills everything; tenants may not move, so the
	// stream only finishes after the re-plug.
	specs := []JobSpec{{
		Tenant: 0, GPUs: 2, Workload: "ResNet-50", Precision: gpu.FP16,
		Epochs: 1, ItersPerEpoch: 6,
	}}
	f := testFleet(t, 2, 4, true)
	res0, err := Run(testFleet(t, 2, 4, true), specs, Options{Policy: Static{}, AttachLatency: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := res0.Makespan
	replug := 3 * base
	plan := faults.Plan{Events: []faults.Event{
		{At: base / 2, Kind: faults.KindDrawer, Target: 0, Repair: replug},
	}}
	res, err := Run(f, specs, Options{Policy: Static{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Retries == 0 || j.Failed {
		t.Fatalf("drawer flap should have killed and retried the job: %+v", j)
	}
	if j.Launched < base/2+replug {
		t.Errorf("static tenant relaunched at %v, before the re-plug at %v", j.Launched, base/2+replug)
	}
}

func TestLinkDegradationSlowsTheRun(t *testing.T) {
	specs := longJob(2)
	base := faultFreeMakespan(t, specs)
	f := testFleet(t, 2, 8, false)
	plan := faults.Plan{Events: []faults.Event{
		// Permanently degrade every picked slot's link hard.
		{At: base / 4, Kind: faults.KindSlotLink, Target: 0, Factor: 0.05},
		{At: base / 4, Kind: faults.KindSlotLink, Target: 1, Factor: 0.05},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 0 {
		t.Fatalf("link degradation should not kill jobs (kills=%d)", res.Kills)
	}
	if res.Makespan <= base {
		t.Errorf("degraded links: makespan %v not beyond fault-free %v", res.Makespan, base)
	}
}

func TestRetryBudgetExhaustionFailsJob(t *testing.T) {
	specs := longJob(2)
	base := faultFreeMakespan(t, specs)
	f := testFleet(t, 2, 8, false)
	// MaxRetries < 0 → zero budget: the first kill abandons the job.
	plan := faults.Plan{Events: []faults.Event{
		{At: base / 2, Kind: faults.KindGPU, Target: 0},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if !j.Failed || res.FailedJobs != 1 {
		t.Fatalf("job should be abandoned on a zero retry budget: %+v", j)
	}
	if j.Finished != 0 || j.Runtime != 0 {
		t.Errorf("failed job carries completion telemetry: %+v", j)
	}
	if res.Makespan != 0 || res.Goodput != 0 {
		t.Errorf("no completed jobs: makespan %v goodput %v", res.Makespan, res.Goodput)
	}
}

func TestFaultyRunsAreDeterministic(t *testing.T) {
	specs := longJob(3)
	base := faultFreeMakespan(t, specs)
	run := func() string {
		f := testFleet(t, 2, 8, false)
		plan := faults.Plan{Events: []faults.Event{
			{At: base / 3, Kind: faults.KindGPU, Target: 0, Repair: base},
			{At: base / 2, Kind: faults.KindSlotLink, Target: 2, Factor: 0.1, Repair: base / 2},
			{At: 2 * base / 3, Kind: faults.KindHost, Target: 1, Repair: base},
		}}
		res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical faulty runs diverged:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestFaultTrackRecordsTimeline(t *testing.T) {
	specs := longJob(2)
	base := faultFreeMakespan(t, specs)
	f := testFleet(t, 2, 8, false)
	plan := faults.Plan{Events: []faults.Event{
		{At: base / 2, Kind: faults.KindGPU, Target: 0, Repair: base},
	}}
	res, err := Run(f, specs, Options{Policy: DrawerLocal{}, AttachLatency: -1, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Track == nil || res.Track.Len() < 3 {
		t.Fatalf("fault track missing events: %+v", res.Track)
	}
	byKind := map[string]int{}
	for _, e := range res.Track.Events {
		byKind[e.Kind]++
	}
	if byKind["fault"] != 1 || byKind["repair"] != 1 || byKind["kill"] != 1 {
		t.Errorf("track kinds %v, want 1 fault + 1 repair + 1 kill", byKind)
	}
	if res.FaultLedger == "" || !strings.Contains(res.Fingerprint(), res.FaultLedger) {
		t.Error("fault ledger missing from the fingerprint")
	}
}

// TestPodFaultCoversExactlyItsPod fails pod 1 of a 3-pod fleet while jobs
// run on every pod: the slot down and up events name exactly pod 1's
// slots, in slot order and after the pod event, and only jobs placed on
// pod 1's hosts or holding its slots are killed.
func TestPodFaultCoversExactlyItsPod(t *testing.T) {
	f, err := cluster.ComposeFleet(sim.NewEnv(), cluster.FleetOptions{Hosts: 2, GPUs: 8, Pods: 3, ChassisPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, slot := range f.Slots {
		if slot.Pod == 1 {
			want = append(want, i)
		}
	}
	var specs []JobSpec
	for tenant := 0; tenant < len(f.Hosts); tenant++ {
		specs = append(specs, JobSpec{Tenant: tenant, GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16, Epochs: 4, ItersPerEpoch: 8})
	}
	plan := faults.Plan{Events: []faults.Event{{At: time.Second, Kind: faults.KindPod, Target: 1, Repair: 2 * time.Second}}}
	var down, up []int
	var pod []EventKind
	res, err := Run(f, specs, Options{Policy: FirstFit{}, Faults: &plan, Probe: func(ev Event) {
		switch ev.Kind {
		case EventPodDown, EventPodUp:
			pod = append(pod, ev.Kind)
		case EventSlotDown:
			if len(pod) != 1 {
				t.Errorf("slot %v down outside the pod-down window (pod events %v)", ev.Indices, pod)
			}
			down = append(down, ev.Indices...)
		case EventSlotUp:
			if len(pod) != 2 {
				t.Errorf("slot %v up before the pod-up event (pod events %v)", ev.Indices, pod)
			}
			up = append(up, ev.Indices...)
		case EventKill:
			hit := f.Hosts[ev.Host].Pod == 1
			for _, i := range ev.Indices {
				hit = hit || f.Slots[i].Pod == 1
			}
			if !hit {
				t.Errorf("job %d on host %d killed without touching pod 1", ev.Job, ev.Host)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pod, []EventKind{EventPodDown, EventPodUp}) {
		t.Fatalf("pod events %v", pod)
	}
	if !reflect.DeepEqual(down, want) || !reflect.DeepEqual(up, want) {
		t.Fatalf("pod 1 slots %v; went down %v, came up %v", want, down, up)
	}
	if res.Kills == 0 {
		t.Fatal("the pod fault killed no job")
	}
}
