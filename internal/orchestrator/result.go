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
// Every fleet scenario and sweep renders one, so it appends with strconv
// into a presized builder instead of formatting.
func (r *FleetResult) Fingerprint() string {
	w := fingerprinter{}
	w.b.Grow(128 + 256*len(r.Jobs) + len(r.FaultLedger))
	w.str("policy=", r.Policy)
	w.int(" hosts=", int64(r.Hosts))
	w.int(" gpus=", int64(r.GPUs))
	w.int(" jobs=", int64(len(r.Jobs)))
	if r.Chassis != 0 {
		// Rendered only for hierarchical fleets, so degenerate fingerprints
		// stay byte-identical across the topology generations.
		w.int(" pods=", int64(r.Pods))
		w.int(" chassis=", int64(r.Chassis))
		w.float(" oversub=", r.Oversubscription)
	}
	w.b.WriteByte('\n')
	for _, j := range r.Jobs {
		w.int("job id=", int64(j.ID))
		w.str(" wl=", j.Workload)
		w.int(" g=", int64(j.GPUs))
		w.int(" tenant=", int64(j.Tenant))
		w.int(" host=", int64(j.Host))
		w.int(" moves=", int64(j.Moves))
		w.b.WriteString(" slots=")
		for i, ref := range j.Slots {
			sep := "d"
			if i > 0 {
				sep = "+d"
			}
			w.int(sep, int64(ref.Drawer))
			w.int("/s", int64(ref.Slot))
		}
		w.int(" arr=", int64(j.Arrival))
		w.int(" placed=", int64(j.Placed))
		w.int(" launch=", int64(j.Launched))
		w.int(" fin=", int64(j.Finished))
		w.int(" retries=", int64(j.Retries))
		w.int(" edone=", int64(j.EpochsDone))
		w.str(" failed=", strconv.FormatBool(j.Failed))
		w.float(" lost=", j.LostGPUSeconds)
		if j.Retries > 0 {
			// Per-attempt delivered time differs from GPUs × final runtime
			// only once a retry happened; rendering it conditionally keeps
			// every fault-free job line byte-identical to prior generations.
			w.float(" gpuSec=", j.GPUSeconds)
		}
		if j.Train != nil {
			w.int(" total=", int64(j.Train.TotalTime))
			w.int(" avgIter=", int64(j.Train.AvgIter))
			w.int(" peak=", int64(j.Train.PeakGPUMem))
		}
		w.b.WriteByte('\n')
	}
	w.int("makespan=", int64(r.Makespan))
	w.int(" recomp=", int64(r.Recompositions))
	w.int(" waitTotal=", int64(r.TotalWait))
	w.int(" waitMax=", int64(r.MaxWait))
	w.int(" waitMean=", int64(r.MeanWait))
	w.int("\nfaults=", int64(r.Faults))
	w.int(" kills=", int64(r.Kills))
	w.int(" failedJobs=", int64(r.FailedJobs))
	w.float("\ngpuSec=", r.GPUSeconds)
	w.float("\nutil=", r.Utilization)
	w.float("\nfragGPUSec=", r.FragmentationGPUSeconds)
	w.float("\nlostGPUSec=", r.LostGPUSeconds)
	w.float("\ngoodput=", r.Goodput)
	w.b.WriteByte('\n')
	w.b.WriteString(r.FaultLedger)
	return w.b.String()
}

// fingerprinter appends Fingerprint's "key=value" fields; num is the
// scratch the numbers are rendered into.
type fingerprinter struct {
	b   strings.Builder
	num [32]byte
}

func (w *fingerprinter) str(key, v string) {
	w.b.WriteString(key)
	w.b.WriteString(v)
}

func (w *fingerprinter) int(key string, v int64) {
	w.b.WriteString(key)
	w.b.Write(strconv.AppendInt(w.num[:0], v, 10))
}

func (w *fingerprinter) float(key string, v float64) {
	w.b.WriteString(key)
	w.b.Write(strconv.AppendFloat(w.num[:0], v, 'g', -1, 64))
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
