package experiments

import (
	"strings"
	"testing"
	"time"

	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
)

func TestRecoveryExperimentsRender(t *testing.T) {
	s := NewSession(Quick)
	for _, e := range RecoveryExperiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced empty report", e.ID)
			}
		})
	}
}

// TestR1CheckpointIntervalTradeoff asserts R1's verdict from the
// simulated data itself: fault-free, the fewest checkpoints win (they are
// pure overhead); under a mid-run device fault, the finest checkpoint
// cadence beats the coarsest because it loses less work.
func TestR1CheckpointIntervalTradeoff(t *testing.T) {
	fleet := func(epochs, iters int) scengen.FleetScenario {
		return scengen.FleetScenario{
			Hosts: 1, GPUs: 4, Policy: "drawer", AttachLatency: -1,
			Jobs: []orchestrator.JobSpec{{
				GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16,
				Epochs: epochs, ItersPerEpoch: iters, CheckpointsPerEpoch: 1,
			}},
		}
	}
	run := func(sc scengen.FleetScenario) *orchestrator.FleetResult {
		res, err := fleetRun(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean1, clean8 := run(fleet(1, 24)).Makespan, run(fleet(8, 3)).Makespan
	if clean1 > clean8 {
		t.Errorf("fault-free: 1×24 (%v) should not be slower than 8×3 (%v): checkpoints are overhead", clean1, clean8)
	}

	faultAt := clean1 * 3 / 5
	faultyRun := func(epochs, iters int) *orchestrator.FleetResult {
		sc := fleet(epochs, iters)
		sc.Plan = faults.Plan{Events: []faults.Event{
			{At: faultAt, Kind: faults.KindGPU, Target: 0, Repair: 500 * time.Millisecond},
		}}
		return run(sc)
	}
	coarse, fine := faultyRun(1, 24), faultyRun(8, 3)
	if coarse.Kills != 1 || fine.Kills != 1 {
		t.Fatalf("fault must kill both runs once (coarse %d, fine %d)", coarse.Kills, fine.Kills)
	}
	if fine.Jobs[0].EpochsDone == 0 {
		t.Error("fine cadence carried no checkpointed epochs across the kill")
	}
	if coarse.Jobs[0].EpochsDone != 0 {
		t.Errorf("coarse cadence had no epoch boundary before the fault, carried %d", coarse.Jobs[0].EpochsDone)
	}
	if fine.Makespan >= coarse.Makespan {
		t.Errorf("under the fault, 8×3 (%v) must beat 1×24 (%v): less work lost", fine.Makespan, coarse.Makespan)
	}
	if fine.LostGPUSeconds >= coarse.LostGPUSeconds {
		t.Errorf("fine cadence lost %v GPU-s, coarse %v: cadence should bound the loss",
			fine.LostGPUSeconds, coarse.LostGPUSeconds)
	}
}

// TestR2DynamicBeatsStaticUnderFlaps is the PR's acceptance assertion:
// from simulated data, dynamic recomposition with rescheduling beats the
// static partition on goodput when a drawer flaps mid-burst.
func TestR2DynamicBeatsStaticUnderFlaps(t *testing.T) {
	out, err := RecoveryChassisFlaps(quickSession())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "more goodput") {
		t.Fatalf("R2 report missing the goodput verdict:\n%s", out)
	}
	// Re-derive the numbers instead of parsing the report.
	stream := burstyStream(Quick.ItersPerEpoch)
	run := func(policy string) *orchestrator.FleetResult {
		sc := scengen.FleetScenario{
			Hosts: 3, GPUs: 12, Preattach: true, Policy: policy,
			AttachLatency: orchestrator.DefaultAttachLatency, Jobs: stream,
			Plan: faults.Plan{Events: []faults.Event{
				{At: 2 * time.Second, Kind: faults.KindDrawer, Target: 0, Repair: 6 * time.Second},
			}},
		}
		res, err := fleetRun(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static, dynamic := run("static"), run("drawer")
	if static.Kills == 0 || dynamic.Kills == 0 {
		t.Fatalf("the flap must kill jobs under both policies (static %d, dynamic %d)", static.Kills, dynamic.Kills)
	}
	if dynamic.Goodput <= static.Goodput {
		t.Errorf("dynamic goodput %.3f not above static %.3f under chassis flaps",
			dynamic.Goodput, static.Goodput)
	}
	if dynamic.Makespan >= static.Makespan {
		t.Errorf("dynamic makespan %v not below static %v under chassis flaps",
			dynamic.Makespan, static.Makespan)
	}
}

// TestR3DegradationMonotone asserts R3's physics from data: deeper link
// degradation never speeds training up, DDP overlap keeps a half-speed
// link below the naive 2× hit, and a starved link clearly slows the run.
func TestR3DegradationMonotone(t *testing.T) {
	iters, err := MeasureDegradedLink(quickSession(), []float64{1, 0.5, 0.25, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] < iters[i-1] {
			t.Errorf("deeper degradation sped training up: %v after %v", iters[i], iters[i-1])
		}
	}
	if ratio := iters[1].Seconds() / iters[0].Seconds(); ratio >= 2 {
		t.Errorf("half-speed link slowed ×%.2f: DDP overlap should absorb part of it", ratio)
	}
	if ratio := iters[3].Seconds() / iters[0].Seconds(); ratio < 2 {
		t.Errorf("a 10%% link slowed only ×%.2f: degradation not biting", ratio)
	}
}
