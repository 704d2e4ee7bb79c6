package experiments

import (
	"fmt"
	"strings"
	"time"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// FleetExperiments is the orchestrator experiment family (S1–S4): fleet
// scheduling studies on the multi-host testbed, beyond anything the paper
// measures — its §III-B advanced mode exercised as a serving system
// instead of a one-shot composition. Every run executes under the full
// fleet invariant probe set; a violation fails the experiment.
func FleetExperiments() []Experiment {
	return []Experiment{
		{"S1", "Fleet: static partitioning vs dynamic GPU recomposition", FleetStaticVsDynamic},
		{"S2", "Fleet: placement-policy shoot-out", FleetPolicyShootout},
		{"S3", "Fleet: arrival-rate saturation sweep", FleetSaturation},
		{"S4", "Fleet: pod locality under an oversubscribed spine", FleetPodLocality},
		{"S5", "Fleet: time attribution and SLO verdicts", FleetAttributionSLO},
	}
}

// fleetRun executes a scenario, its fault plan armed, and fails on any
// invariant violation, so the S and R experiments cannot publish numbers
// from a broken run.
func fleetRun(sc scengen.FleetScenario) (*orchestrator.FleetResult, error) {
	out, err := scengen.RunFleet(sim.NewEnv(), sc, nil)
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out.Result, nil
}

// burstyStream is S1's workload: tenant 0 dumps a burst of five 4-GPU
// jobs at once (a deadline crunch), while tenants 1 and 2 each submit one
// small job later. Under a static per-host partition the burst serializes
// on tenant 0's fixed four GPUs while eight others idle; dynamic
// recomposition spreads it across the fleet.
func burstyStream(iters int) []orchestrator.JobSpec {
	var jobs []orchestrator.JobSpec
	for i := 0; i < 5; i++ {
		jobs = append(jobs, orchestrator.JobSpec{
			Arrival: time.Duration(i) * 200 * time.Millisecond,
			Tenant:  0, GPUs: 4, Workload: "ResNet-50",
			Epochs: 1, ItersPerEpoch: iters,
		})
	}
	jobs = append(jobs,
		orchestrator.JobSpec{Arrival: 6 * time.Second, Tenant: 1, GPUs: 2, Workload: "MobileNetV2", Epochs: 1, ItersPerEpoch: iters},
		orchestrator.JobSpec{Arrival: 8 * time.Second, Tenant: 2, GPUs: 2, Workload: "BERT", Epochs: 1, ItersPerEpoch: iters},
	)
	return jobs
}

// FleetStaticVsDynamic (S1) runs the bursty stream through the static
// per-host partition and through dynamic recomposition (drawer-local
// policy) on the same 3-host × 12-GPU fleet, and compares makespan — the
// headline claim of a composable system, quantified: re-cabling GPUs
// between hosts on demand beats static ownership even though every move
// costs a hot-plug delay.
func FleetStaticVsDynamic(s *Session) (string, error) {
	stream := burstyStream(s.Scale.ItersPerEpoch)
	static := scengen.FleetScenario{
		Hosts: 3, GPUs: 12, Preattach: true, Policy: "static",
		AttachLatency: orchestrator.DefaultAttachLatency, Jobs: stream,
	}
	dynamic := static
	dynamic.Policy = "drawer"

	sres, err := fleetRun(static)
	if err != nil {
		return "", err
	}
	dres, err := fleetRun(dynamic)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Bursty stream (%d jobs, tenant 0 bursts 5×4-GPU) on 3 hosts × 12 GPUs\n", len(stream))
	fmt.Fprintf(&b, "%-22s %14s %14s %14s %8s\n", "composition", "makespan", "mean wait", "max wait", "moves")
	for _, r := range []*orchestrator.FleetResult{sres, dres} {
		label := "static partition"
		if r.Policy != "static" {
			label = "dynamic (" + r.Policy + ")"
		}
		fmt.Fprintf(&b, "%-22s %14v %14v %14v %8d\n", label,
			r.Makespan.Round(time.Millisecond), r.MeanWait.Round(time.Millisecond),
			r.MaxWait.Round(time.Millisecond), r.Recompositions)
	}
	speedup := sres.Makespan.Seconds() / dres.Makespan.Seconds()
	fmt.Fprintf(&b, "\nDynamic recomposition finishes the stream %.2fx faster: the burst\n", speedup)
	fmt.Fprintf(&b, "spreads over all three hosts (%d device moves at %v each) while the\n",
		dres.Recompositions, orchestrator.DefaultAttachLatency)
	fmt.Fprintf(&b, "static partition strands %.0f GPU-s of idle capacity behind ownership.\n",
		sres.FragmentationGPUSeconds)
	return b.String(), nil
}

// shootoutStream is S2's workload: all three tenants active with mixed
// demands, enough overlap that placement quality matters.
func shootoutStream(iters int) []orchestrator.JobSpec {
	mk := func(at time.Duration, tenant, gpus int, wl string) orchestrator.JobSpec {
		return orchestrator.JobSpec{Arrival: at, Tenant: tenant, GPUs: gpus, Workload: wl, Epochs: 1, ItersPerEpoch: iters}
	}
	return []orchestrator.JobSpec{
		mk(0, 0, 4, "ResNet-50"),
		mk(0, 1, 2, "BERT"),
		mk(500*time.Millisecond, 2, 6, "MobileNetV2"),
		mk(1*time.Second, 0, 2, "ResNet-50"),
		mk(2*time.Second, 1, 4, "MobileNetV2"),
		mk(3*time.Second, 2, 2, "BERT"),
		mk(3*time.Second, 0, 4, "ResNet-50"),
	}
}

// FleetPolicyShootout (S2) runs one mixed stream through every dynamic
// placement policy on a warm fleet (GPUs preattached round-robin, the
// state a running fleet is always in) and tabulates the scheduling
// telemetry. On this fabric the drawer switch absorbs peer traffic
// wherever a job lands, so what separates policies is mostly
// recomposition — every device move costs a hot-plug window the queue
// inherits — and which slots a policy is willing to move to get its
// preferred layout shifts with the job mix and run length. The verdict
// line is derived from the measured table, never asserted a priori.
func FleetPolicyShootout(s *Session) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed 7-job stream, 3 hosts × 12 GPUs, warm (preattached) fleet\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %8s %8s %12s\n", "policy", "makespan", "mean wait", "moves", "util", "stranded")
	var best, worst *orchestrator.FleetResult
	for _, policy := range []string{"firstfit", "drawer", "bandwidth"} {
		sc := scengen.FleetScenario{
			Hosts: 3, GPUs: 12, Preattach: true, Policy: policy,
			AttachLatency: orchestrator.DefaultAttachLatency,
			Jobs:          shootoutStream(s.Scale.ItersPerEpoch),
		}
		r, err := fleetRun(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %14v %14v %8d %7.1f%% %10.1fGs\n", policy,
			r.Makespan.Round(time.Millisecond), r.MeanWait.Round(time.Millisecond),
			r.Recompositions, r.Utilization*100, r.FragmentationGPUSeconds)
		if best == nil || r.Makespan < best.Makespan {
			best = r
		}
		if worst == nil || r.Makespan > worst.Makespan {
			worst = r
		}
	}
	fmt.Fprintf(&b, "\n%s wins this stream: %v makespan over %s's %v (%d moves vs %d\n",
		best.Policy, best.Makespan.Round(time.Millisecond),
		worst.Policy, worst.Makespan.Round(time.Millisecond),
		best.Recompositions, worst.Recompositions)
	fmt.Fprintf(&b, "at %v each). Placement quality here is recomposition\n", orchestrator.DefaultAttachLatency)
	fmt.Fprintf(&b, "discipline: moves the policy spends buying its preferred layout.\n")
	return b.String(), nil
}

// FleetSaturation (S3) replays the mixed stream at increasing arrival
// rates (inter-arrival gaps ×4, ×1, ×¼) under the drawer-local policy:
// the queueing curve of the fleet, from idle to saturated.
func FleetSaturation(s *Session) (string, error) {
	base := shootoutStream(s.Scale.ItersPerEpoch)
	var b strings.Builder
	fmt.Fprintf(&b, "Arrival-rate sweep (drawer policy, 3 hosts × 12 GPUs)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %8s\n", "load", "makespan", "mean wait", "max wait", "util")
	for _, load := range []struct {
		label string
		scale float64
	}{
		{"0.25x", 4}, {"1x", 1}, {"4x", 0.25},
	} {
		jobs := make([]orchestrator.JobSpec, len(base))
		for i, j := range base {
			j.Arrival = time.Duration(float64(j.Arrival) * load.scale)
			jobs[i] = j
		}
		sc := scengen.FleetScenario{
			Hosts: 3, GPUs: 12, Preattach: true, Policy: "drawer",
			AttachLatency: orchestrator.DefaultAttachLatency, Jobs: jobs,
		}
		r, err := fleetRun(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %14v %14v %14v %7.1f%%\n", load.label,
			r.Makespan.Round(time.Millisecond), r.MeanWait.Round(time.Millisecond),
			r.MaxWait.Round(time.Millisecond), r.Utilization*100)
	}
	fmt.Fprintf(&b, "\nAs the same work arrives faster, waits grow superlinearly while\n")
	fmt.Fprintf(&b, "utilization saturates — the fleet's queueing knee, measured.\n")
	return b.String(), nil
}

// podStream is S4's workload: three 12-GPU jobs against 8-GPU chassis, so
// each must span chassis — and on a one-chassis-per-pod fleet, pods —
// putting its DDP ring on the spine; three small jobs ride along.
func podStream(iters int) []orchestrator.JobSpec {
	mk := func(at time.Duration, tenant, gpus int, wl string) orchestrator.JobSpec {
		return orchestrator.JobSpec{Arrival: at, Tenant: tenant, GPUs: gpus, Workload: wl, Epochs: 1, ItersPerEpoch: iters}
	}
	return []orchestrator.JobSpec{
		mk(0, 0, 12, "ResNet-50"),
		mk(0, 1, 4, "BERT"),
		mk(500*time.Millisecond, 2, 12, "MobileNetV2"),
		mk(1*time.Second, 3, 6, "ResNet-50"),
		mk(2*time.Second, 4, 4, "BERT"),
		mk(3*time.Second, 5, 12, "ResNet-50"),
	}
}

// s4Fleet is the S4 testbed: 4 pods × 1 chassis × 8 GPUs (2 hosts per
// chassis), so every cross-chassis byte is a cross-pod byte on the spine.
func s4Fleet(policy string, oversub float64, jobs []orchestrator.JobSpec) scengen.FleetScenario {
	return scengen.FleetScenario{
		Hosts: 2, GPUs: 8, Preattach: true, Policy: policy,
		Pods: 4, ChassisPerPod: 1, Oversubscription: oversub,
		AttachLatency: orchestrator.DefaultAttachLatency, Jobs: jobs,
	}
}

// FleetPodLocality (S4) runs the pod stream through every dynamic policy
// on a non-blocking spine (1:1) and on a heavily oversubscribed one
// (16:1), on the same 4-pod fleet. The spread between the two columns is
// each policy's measured spine exposure: how much of its layout lives or
// dies with cross-pod bandwidth. The verdict is derived from the table.
func FleetPodLocality(s *Session) (string, error) {
	jobs := podStream(s.Scale.ItersPerEpoch)
	var b strings.Builder
	fmt.Fprintf(&b, "Pod fleet: 4 pods × 1 chassis × 8 GPUs, 2 hosts/chassis, %d jobs (3 span pods)\n", len(jobs))
	fmt.Fprintf(&b, "%-10s %8s %14s %14s %8s %8s\n", "policy", "spine", "makespan", "mean wait", "moves", "util")
	type row struct {
		policy   string
		slowdown float64
	}
	var rows []row
	for _, policy := range []string{"firstfit", "drawer", "bandwidth"} {
		var span [2]*orchestrator.FleetResult
		for i, oversub := range []float64{1, 16} {
			r, err := fleetRun(s4Fleet(policy, oversub, jobs))
			if err != nil {
				return "", err
			}
			span[i] = r
			fmt.Fprintf(&b, "%-10s %7gx %14v %14v %8d %7.1f%%\n", policy, oversub,
				r.Makespan.Round(time.Millisecond), r.MeanWait.Round(time.Millisecond),
				r.Recompositions, r.Utilization*100)
		}
		rows = append(rows, row{policy, span[1].Makespan.Seconds() / span[0].Makespan.Seconds()})
	}
	best, worst := rows[0], rows[0]
	for _, r := range rows[1:] {
		if r.slowdown < best.slowdown {
			best = r
		}
		if r.slowdown > worst.slowdown {
			worst = r
		}
	}
	fmt.Fprintf(&b, "\nStarving the spine 16x slows %s least (%.2fx) and %s most (%.2fx):\n",
		best.policy, best.slowdown, worst.policy, worst.slowdown)
	fmt.Fprintf(&b, "the gap is the cross-pod traffic each policy's placements put on the\n")
	fmt.Fprintf(&b, "oversubscribed tier — locality discipline, measured end to end.\n")
	return b.String(), nil
}

// FleetAttributionSLO (S5) turns the S1 bursty stream into an SLO
// story: the same stream runs under the static partition and under
// dynamic recomposition with a trace collector attached, the analyzer
// attributes every job's wall time (wait / compose / compute /
// checkpoint), and both runs are scored against a declarative queue-wait
// SLO. The attribution table shows *why* a verdict comes out the way it
// does — the failing composition's wall time is queue wait, not compute.
// Both runs are also asserted against "max-failed<=0": an S experiment
// must never publish numbers from a run that abandoned jobs.
func FleetAttributionSLO(s *Session) (string, error) {
	stream := burstyStream(s.Scale.ItersPerEpoch)
	const slo = "p99-wait<=15s max-failed<=0"

	var b strings.Builder
	fmt.Fprintf(&b, "Bursty stream (%d jobs) on 3 hosts × 12 GPUs, scored against SLO %q\n",
		len(stream), slo)
	fmt.Fprintf(&b, "%-22s %14s %14s %7s %9s %9s %6s\n",
		"composition", "makespan", "p99 wait", "wait%", "compose%", "compute%", "slo")

	type row struct {
		label   string
		p99Wait time.Duration
		waitPct float64
		healthy bool
	}
	var rows []row
	for _, policy := range []string{"static", "drawer"} {
		sc := scengen.FleetScenario{
			Hosts: 3, GPUs: 12, Preattach: true, Policy: policy,
			AttachLatency: orchestrator.DefaultAttachLatency, Jobs: stream,
		}
		c := obs.NewCollector()
		out, err := scengen.RunFleet(sim.NewEnv(), sc, c)
		if err != nil {
			return "", err
		}
		if err := out.Err(); err != nil {
			return "", err
		}
		a := analyze.FromCollector(c).Analyze()
		if err := scengen.CheckSLO("max-failed<=0", a, out.Stats()); err != nil {
			return "", fmt.Errorf("S5 %s run is broken: %w", policy, err)
		}
		var total time.Duration
		for _, d := range a.Blame {
			total += d
		}
		pct := func(bk analyze.Bucket) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(a.Blame[bk]) / float64(total)
		}
		health := analyze.Evaluate(mustSLO(slo), a, out.Stats())
		verdict := "FAIL"
		if health.Healthy {
			verdict = "ok"
		}
		label := "static partition"
		if policy != "static" {
			label = "dynamic (" + policy + ")"
		}
		fmt.Fprintf(&b, "%-22s %14v %14v %6.1f%% %8.1f%% %8.1f%% %6s\n", label,
			out.Result.Makespan.Round(time.Millisecond), a.Wait.P99().Round(time.Millisecond),
			pct(analyze.BucketWait), pct(analyze.BucketCompose), pct(analyze.BucketCompute), verdict)
		rows = append(rows, row{label, a.Wait.P99(), pct(analyze.BucketWait), health.Healthy})
	}

	// The verdict sentence is derived from the measured attribution.
	worst, best := rows[0], rows[0]
	for _, r := range rows[1:] {
		if r.p99Wait > worst.p99Wait {
			worst = r
		}
		if r.p99Wait < best.p99Wait {
			best = r
		}
	}
	fmt.Fprintf(&b, "\nAttribution explains the verdicts: %s spends %.1f%% of the fleet's\n",
		worst.label, worst.waitPct)
	fmt.Fprintf(&b, "attributed time queueing (p99 wait %v) where %s holds the tail to %v\n",
		worst.p99Wait.Round(time.Millisecond), best.label, best.p99Wait.Round(time.Millisecond))
	fmt.Fprintf(&b, "(%.1f%% waiting) — the SLO column is the same physics, scored.\n", best.waitPct)
	return b.String(), nil
}

// mustSLO parses a compile-time-constant SLO spec.
func mustSLO(spec string) analyze.SLO {
	slo, err := analyze.ParseSLO(spec)
	if err != nil {
		panic(err)
	}
	return slo
}
