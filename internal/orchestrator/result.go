package orchestrator

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"composable/internal/falcon"
	"composable/internal/obs"
	"composable/internal/train"
)

// JobResult is one completed job's telemetry.
type JobResult struct {
	ID       int
	Workload string
	GPUs     int
	Tenant   int
	Host     int // final (or last) host; -1 if never placed
	Moves    int // recompositions across every attempt
	Slots    []falcon.SlotRef

	Arrival, Placed, Launched, Finished time.Duration
	// Wait is queueing plus recomposition delay of the final attempt
	// (Launched − Arrival; includes time spent on killed attempts).
	Wait time.Duration
	// Runtime is the final attempt's training time (Finished − Launched).
	Runtime time.Duration

	// Fault recovery telemetry.
	// Retries counts attempts a fault killed; EpochsDone is the progress
	// checkpoints carried between them; GPUSeconds is delivered (kept) GPU
	// time summed over every attempt — killed attempts up to their last
	// epoch-boundary checkpoint, the final attempt in full; LostGPUSeconds
	// is GPU time spent past the last checkpoint of killed attempts (work
	// re-done). Delivered + lost = GPUs × total attempt time.
	Retries        int
	EpochsDone     int
	GPUSeconds     float64
	LostGPUSeconds float64
	// Failed marks a job abandoned after its retry budget; FailureCause
	// is the last fault that killed it.
	Failed       bool
	FailureCause string

	Train *train.Result
}

// FleetResult is the telemetry of one complete fleet run.
type FleetResult struct {
	Policy string
	Hosts  int
	GPUs   int
	Jobs   []JobResult // in stream (ID) order

	// Hierarchical shape (all zero on a degenerate single-chassis fleet):
	// Pods × Chassis chassis behind a spine, with each pod's uplink
	// provisioned at 1/Oversubscription of its aggregate leaf bandwidth.
	Pods             int
	Chassis          int
	Oversubscription float64

	// Makespan is the finish time of the last job.
	Makespan time.Duration
	// Wait aggregates over jobs.
	TotalWait, MaxWait, MeanWait time.Duration
	// Recompositions counts every control-plane device move.
	Recompositions int
	// GPUSeconds is Σ completed jobs' delivered GPU time over every
	// attempt: killed attempts count up to their last epoch-boundary
	// checkpoint (work that was kept), the final attempt in full. Work past
	// a checkpoint is in LostGPUSeconds, not here; abandoned jobs
	// contribute nothing.
	GPUSeconds float64
	// Utilization is GPUSeconds over the GPU time that actually existed:
	// fleet GPUs × makespan on a fault-free run, the live-capacity integral
	// ∫ live GPUs dt once any device, drawer, or pod went down — a
	// permanently failed GPU shrinks the denominator instead of reading as
	// scheduler idleness.
	Utilization float64
	// FragmentationGPUSeconds integrates free GPUs over the time at least
	// one job was waiting: capacity that existed but the policy could not
	// put under the queue head.
	FragmentationGPUSeconds float64

	// Fault telemetry (all zero on a fault-free run).
	// Faults counts injected failure events, Kills job attempts torn
	// down, FailedJobs jobs abandoned over budget.
	Faults, Kills, FailedJobs int
	// LostGPUSeconds is Σ jobs' lost work: GPU time past the last
	// checkpoint of killed attempts.
	LostGPUSeconds float64
	// Goodput is delivered useful GPU-seconds per second of makespan —
	// the recovery metric experiment R2 compares across policies: lost
	// and re-done work earns nothing.
	Goodput float64
	// FaultLedger is the canonical applied-fault log (empty without
	// faults); it is part of the fingerprint.
	FaultLedger string
	// Track is the annotated fault/kill event track for CSV export and
	// chart overlays.
	Track *obs.Track
}

// Fingerprint canonically renders every deterministic scalar of the fleet
// telemetry. Durations are exact nanosecond integers and floats use the
// shortest round-trip encoding, so two runs match if and only if they are
// bit-identical — the fleet sweep's run-twice check diffs these strings.
func (r *FleetResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s hosts=%d gpus=%d jobs=%d", r.Policy, r.Hosts, r.GPUs, len(r.Jobs))
	if r.Chassis != 0 {
		// Rendered only for hierarchical fleets, so degenerate fingerprints
		// stay byte-identical across the topology generations.
		fmt.Fprintf(&b, " pods=%d chassis=%d oversub=%s",
			r.Pods, r.Chassis, strconv.FormatFloat(r.Oversubscription, 'g', -1, 64))
	}
	b.WriteByte('\n')
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "job id=%d wl=%s g=%d tenant=%d host=%d moves=%d slots=", j.ID, j.Workload, j.GPUs, j.Tenant, j.Host, j.Moves)
		for i, ref := range j.Slots {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(ref.String())
		}
		fmt.Fprintf(&b, " arr=%d placed=%d launch=%d fin=%d", int64(j.Arrival), int64(j.Placed), int64(j.Launched), int64(j.Finished))
		fmt.Fprintf(&b, " retries=%d edone=%d failed=%t lost=%s",
			j.Retries, j.EpochsDone, j.Failed, strconv.FormatFloat(j.LostGPUSeconds, 'g', -1, 64))
		if j.Retries > 0 {
			// Per-attempt delivered time differs from GPUs × final runtime
			// only once a retry happened; rendering it conditionally keeps
			// every fault-free job line byte-identical to prior generations.
			fmt.Fprintf(&b, " gpuSec=%s", strconv.FormatFloat(j.GPUSeconds, 'g', -1, 64))
		}
		if j.Train != nil {
			fmt.Fprintf(&b, " total=%d avgIter=%d peak=%d", int64(j.Train.TotalTime), int64(j.Train.AvgIter), int64(j.Train.PeakGPUMem))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "makespan=%d recomp=%d waitTotal=%d waitMax=%d waitMean=%d\n",
		int64(r.Makespan), r.Recompositions, int64(r.TotalWait), int64(r.MaxWait), int64(r.MeanWait))
	fmt.Fprintf(&b, "faults=%d kills=%d failedJobs=%d\n", r.Faults, r.Kills, r.FailedJobs)
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"gpuSec", r.GPUSeconds},
		{"util", r.Utilization},
		{"fragGPUSec", r.FragmentationGPUSeconds},
		{"lostGPUSec", r.LostGPUSeconds},
		{"goodput", r.Goodput},
	} {
		b.WriteString(f.name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(f.v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	b.WriteString(r.FaultLedger)
	return b.String()
}

// Summary renders the fleet aggregates as a one-paragraph report line set.
func (r *FleetResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %-10s %d jobs on %d hosts × %d GPUs\n", r.Policy, len(r.Jobs), r.Hosts, r.GPUs)
	fmt.Fprintf(&b, "  makespan %v  mean wait %v  max wait %v\n",
		r.Makespan.Round(time.Millisecond), r.MeanWait.Round(time.Millisecond), r.MaxWait.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %d recompositions, %.1f GPU-s delivered, utilization %.1f%%, %.1f GPU-s stranded\n",
		r.Recompositions, r.GPUSeconds, r.Utilization*100, r.FragmentationGPUSeconds)
	if r.Faults > 0 {
		fmt.Fprintf(&b, "  %d faults: %d kills, %d jobs failed, %.1f GPU-s lost, goodput %.2f GPU/s\n",
			r.Faults, r.Kills, r.FailedJobs, r.LostGPUSeconds, r.Goodput)
	}
	return b.String()
}
