package experiments

import (
	"fmt"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/invariant"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// RecoveryExperiments is the fault/recovery experiment family (R1–R3):
// the composable test bed exercised under the failures its own
// architecture invites — dying chassis GPUs, drawer hot-unplugs,
// degraded Falcon links — with the checkpoint/restart and rescheduling
// machinery measured rather than assumed. Every run executes under the
// full fault-aware invariant probe set; a violation fails the experiment.
func RecoveryExperiments() []Experiment {
	return []Experiment{
		{"R1", "Recovery: checkpoint interval vs device MTBF", RecoveryCheckpointInterval},
		{"R2", "Recovery: static vs dynamic placement under chassis flaps", RecoveryChassisFlaps},
		{"R3", "Recovery: degraded Falcon link impact on DDP throughput", RecoveryDegradedLink},
	}
}

// RecoveryCheckpointInterval (R1) trains the same fixed work budget (24
// iterations of ResNet-50 on 4 chassis GPUs) split into 1, 2, 4 and 8
// epochs — the checkpoint cadence, since every epoch boundary writes a
// checkpoint and restart resumes from the last one — first fault-free,
// then with a GPU dying at ~60% of the run. Frequent checkpoints cost
// storage-tier writes up front but bound the work a fault destroys: the
// classic checkpoint-interval trade, measured end to end through the
// scheduler, the storage tier and the restore path.
func RecoveryCheckpointInterval(s *Session) (string, error) {
	splits := []struct{ epochs, iters int }{{1, 24}, {2, 12}, {4, 6}, {8, 3}}
	fleet := func(epochs, iters int) scengen.FleetScenario {
		return scengen.FleetScenario{
			Hosts: 1, GPUs: 4, Policy: "drawer", AttachLatency: -1,
			Jobs: []orchestrator.JobSpec{{
				GPUs: 4, Workload: "ResNet-50", Precision: gpu.FP16,
				Epochs: epochs, ItersPerEpoch: iters, CheckpointsPerEpoch: 1,
			}},
		}
	}

	// Fault-free baselines; the 1-epoch split also anchors the fault time.
	clean := make([]time.Duration, len(splits))
	for i, sp := range splits {
		res, err := fleetRun(fleet(sp.epochs, sp.iters))
		if err != nil {
			return "", err
		}
		clean[i] = res.Makespan
	}
	faultAt := clean[0] * 3 / 5

	var b strings.Builder
	fmt.Fprintf(&b, "Fixed work (24 iters, ResNet-50 ×4 GPUs), checkpoint every epoch boundary;\n")
	fmt.Fprintf(&b, "fault: the job's GPU dies at %v (repaired 500ms later), restart resumes\n", faultAt.Round(time.Millisecond))
	fmt.Fprintf(&b, "from the last checkpoint.\n\n")
	fmt.Fprintf(&b, "%8s %14s %14s %12s %12s\n", "epochs", "fault-free", "faulty", "lost GPU-s", "ckpt carry")
	faulty := make([]time.Duration, len(splits))
	for i, sp := range splits {
		sc := fleet(sp.epochs, sp.iters)
		sc.Plan = faults.Plan{Events: []faults.Event{
			{At: faultAt, Kind: faults.KindGPU, Target: 0, Repair: 500 * time.Millisecond},
		}}
		res, err := fleetRun(sc)
		if err != nil {
			return "", err
		}
		j := res.Jobs[0]
		faulty[i] = res.Makespan
		fmt.Fprintf(&b, "%8d %14v %14v %12.1f %9d ep\n", sp.epochs,
			clean[i].Round(time.Millisecond), res.Makespan.Round(time.Millisecond),
			j.LostGPUSeconds, j.EpochsDone)
	}
	// Data-derived verdict.
	bestClean, bestFaulty := 0, 0
	for i := range splits {
		if clean[i] < clean[bestClean] {
			bestClean = i
		}
		if faulty[i] < faulty[bestFaulty] {
			bestFaulty = i
		}
	}
	fmt.Fprintf(&b, "\nFault-free, %d epoch(s) wins (%v): checkpoints are pure overhead.\n",
		splits[bestClean].epochs, clean[bestClean].Round(time.Millisecond))
	fmt.Fprintf(&b, "Under the fault, %d epochs wins (%v): a shorter checkpoint interval\n",
		splits[bestFaulty].epochs, faulty[bestFaulty].Round(time.Millisecond))
	fmt.Fprintf(&b, "trades write overhead for less work lost — the optimal interval\n")
	fmt.Fprintf(&b, "shrinks as MTBF shrinks.\n")
	return b.String(), nil
}

// flappyPlan is R2's fault schedule: drawer 0 hot-unplugs mid-burst and
// returns 6 seconds later — the chassis flap a composable fabric must
// survive.
func flappyPlan() faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{At: 2 * time.Second, Kind: faults.KindDrawer, Target: 0, Repair: 6 * time.Second},
	}}
}

// RecoveryChassisFlaps (R2) replays S1's bursty stream on the 3-host ×
// 12-GPU fleet while drawer 0 flaps, under the static per-host partition
// and under dynamic recomposition with rescheduling. Static tenants whose
// share sits in the unplugged drawer can only wait for the re-plug;
// dynamic placement reschedules the killed jobs onto drawer 1's surviving
// GPUs and keeps delivering. The verdict metric is goodput — useful
// GPU-seconds per second of makespan — because under faults raw
// utilization also counts work that a kill then throws away.
func RecoveryChassisFlaps(s *Session) (string, error) {
	stream := burstyStream(s.Scale.ItersPerEpoch)
	static := scengen.FleetScenario{
		Hosts: 3, GPUs: 12, Preattach: true, Policy: "static",
		AttachLatency: orchestrator.DefaultAttachLatency, Jobs: stream,
		Plan: flappyPlan(),
	}
	dynamic := static
	dynamic.Policy = "drawer"
	dynamic.Plan = flappyPlan()

	sres, err := fleetRun(static)
	if err != nil {
		return "", err
	}
	dres, err := fleetRun(dynamic)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Bursty stream (%d jobs) on 3 hosts × 12 GPUs; drawer 0 (8 GPUs)\n", len(stream))
	fmt.Fprintf(&b, "hot-unplugs at 2s and returns at 8s.\n\n")
	fmt.Fprintf(&b, "%-22s %12s %9s %6s %7s %10s %12s\n",
		"composition", "makespan", "goodput", "kills", "failed", "lost", "recomps")
	for _, r := range []*orchestrator.FleetResult{sres, dres} {
		label := "static partition"
		if r.Policy != "static" {
			label = "dynamic (" + r.Policy + ")"
		}
		fmt.Fprintf(&b, "%-22s %12v %7.2f/s %6d %7d %8.1fGs %12d\n", label,
			r.Makespan.Round(time.Millisecond), r.Goodput, r.Kills, r.FailedJobs,
			r.LostGPUSeconds, r.Recompositions)
	}
	gain := dres.Goodput/sres.Goodput - 1
	fmt.Fprintf(&b, "\nDynamic recomposition with rescheduling delivers %.0f%% more goodput\n", gain*100)
	fmt.Fprintf(&b, "under the flap: killed jobs restart from checkpoints on drawer 1's\n")
	fmt.Fprintf(&b, "GPUs while static tenants wait out the re-plug (fault timeline: %s).\n",
		dres.Track.Timeline(24, dres.Makespan))
	return b.String(), nil
}

// RecoveryDegradedLink (R3) trains BERT-large with DDP on eight chassis
// GPUs while one GPU's slot link runs degraded — the partially failed
// cable/retimer case, where the device is alive but slow. A ring
// all-reduce crosses every member's link, so one slow link gates every
// gradient bucket; the sweep measures how hard each degradation level
// hits end-to-end throughput and how much of it DDP's compute/comm
// overlap hides.
func RecoveryDegradedLink(s *Session) (string, error) {
	factors := []float64{1, 0.5, 0.25, 0.1}
	iters, err := MeasureDegradedLink(s, factors)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BERT-large FP16 DDP on falconGPUs; GPU 0's slot link at a fraction\n")
	fmt.Fprintf(&b, "of its healthy capacity from t=0.\n\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "link", "avg iter", "slowdown")
	for i, factor := range factors {
		fmt.Fprintf(&b, "%7.0f%% %14v %13.2fx\n", factor*100,
			iters[i].Round(time.Microsecond), iters[i].Seconds()/iters[0].Seconds())
	}
	overlapHidden := 1/factors[1] - iters[1].Seconds()/iters[0].Seconds()
	fmt.Fprintf(&b, "\nOne slow link gates the whole ring, but the slowdown stays below the\n")
	fmt.Fprintf(&b, "raw bandwidth loss (×%.1f at half speed vs ×2.0 naively — DDP overlaps\n",
		iters[1].Seconds()/iters[0].Seconds())
	fmt.Fprintf(&b, "%.1f× of it behind backward compute) until the link is starved.\n", overlapHidden)
	return b.String(), nil
}

// MeasureDegradedLink runs R3's sweep: BERT-large DDP on the falconGPUs
// topology with GPU 0's slot link scaled to each factor (1 = healthy),
// under the full invariant set, returning the average iteration time per
// factor. Exposed so tests can assert the physics on the numbers.
func MeasureDegradedLink(s *Session, factors []float64) ([]time.Duration, error) {
	iters := make([]time.Duration, len(factors))
	for i, factor := range factors {
		env := sim.NewEnv()
		sys, err := cluster.Compose(env, cluster.FalconGPUsConfig())
		if err != nil {
			return nil, err
		}
		inv := invariant.New()
		inv.Watch(sys)
		if factor < 1 {
			link := sys.FalconGPUPortLinks[0]
			healthy := sys.Net.Link(link)
			capAB, capBA := healthy.CapAtoB, healthy.CapBtoA
			inj := faults.NewInjector(env, faults.Plan{Events: []faults.Event{
				{At: time.Millisecond, Kind: faults.KindSlotLink, Target: 0, Factor: factor},
			}}, func(r faults.Record) {
				sys.Net.SetLinkCapacity(link, units.BytesPerSec(float64(capAB)*r.Factor), units.BytesPerSec(float64(capBA)*r.Factor))
			})
			inj.Arm()
		}
		opts := train.Options{
			Workload: dlmodel.BERTLargeWorkload(), Precision: gpu.FP16,
			Epochs: 1, ItersPerEpoch: s.Scale.ItersPerEpoch,
			Probe: inv.TrainProbe(),
		}
		res, err := train.Run(sys, opts)
		if err != nil {
			return nil, err
		}
		inv.CheckResult(sys, res)
		if err := inv.Err(); err != nil {
			return nil, err
		}
		iters[i] = res.AvgIter
	}
	return iters, nil
}
