package advisor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/sim"
)

// Fleet-policy advice: given a *described* job mix — the operator knows
// "five 4-GPU vision jobs and two 2-GPU BERT fine-tunes land every
// morning", not a trace — the advisor synthesizes a deterministic stream
// from the description, replays it on the simulated fleet under every
// placement policy, and recommends the one with the best makespan.

// FleetJobClass is one class of jobs in a described mix.
type FleetJobClass struct {
	Count    int
	GPUs     int
	Workload string // Table II name
}

// FleetMix describes a job mix and the fleet it lands on. Zero values
// pick the defaults (3 hosts × 12 GPUs, 2 s between class bursts, 10
// iterations per job).
type FleetMix struct {
	Hosts, GPUs   int
	Classes       []FleetJobClass
	BurstGap      time.Duration
	ItersPerEpoch int

	// MTBF, when positive, replays the mix under a seeded fault profile
	// with that mean time between failures (dying GPUs, drawer flaps,
	// link outages — all repairable) instead of a fault-free fleet. The
	// same schedule hits every policy, so the ranking measures recovery:
	// under a high fault rate the recommendation can flip, because a
	// layout that wins on contention can lose on blast radius.
	MTBF time.Duration
	// FaultSeed selects the fault schedule (0 = 1).
	FaultSeed int64

	// SLO, when set, is a declarative service objective (analyze.ParseSLO
	// syntax, e.g. "p99-wait<=500ms max-failed<=0") every policy run is
	// scored against. Policies meeting the SLO rank above those violating
	// it regardless of raw speed.
	SLO string
}

// stream synthesizes the deterministic job stream the description
// implies: class c's jobs arrive as a burst at c×BurstGap, 200 ms apart,
// with tenants assigned round-robin across the mix.
func (m FleetMix) stream() []orchestrator.JobSpec {
	var jobs []orchestrator.JobSpec
	n := 0
	for c, class := range m.Classes {
		for i := 0; i < class.Count; i++ {
			jobs = append(jobs, orchestrator.JobSpec{
				Arrival:  time.Duration(c)*m.BurstGap + time.Duration(i)*200*time.Millisecond,
				Tenant:   n % m.Hosts,
				GPUs:     class.GPUs,
				Workload: class.Workload,
				Epochs:   1, ItersPerEpoch: m.ItersPerEpoch,
			})
			n++
		}
	}
	return jobs
}

// PolicyEvaluation is one policy's measured outcome on the mix.
type PolicyEvaluation struct {
	Policy string
	Result *orchestrator.FleetResult
	// P99Wait is the exact nearest-rank 99th-percentile queue wait from
	// the run's trace analysis — the tail a tenant actually feels, which
	// the ranking weighs ahead of fleet-wide makespan.
	P99Wait time.Duration
	// Health is the SLO verdict when the mix declares one.
	Health *analyze.HealthReport
	// Skipped explains why a policy was not evaluated (e.g. the static
	// partition cannot hold the mix's largest job).
	Skipped string
}

// meetsSLO reports the verdict (true when no SLO is declared).
func (e *PolicyEvaluation) meetsSLO() bool {
	return e.Health == nil || e.Health.Healthy
}

// PolicyRecommendation is the advisor's fleet-side output.
type PolicyRecommendation struct {
	Mix       FleetMix
	Best      PolicyEvaluation
	Ranked    []PolicyEvaluation // evaluated policies, best first; skipped appended
	Rationale string
}

// RecommendPolicy replays the described mix under every placement policy
// with a trace collector attached and ranks them tenant-first: SLO
// verdict (when the mix declares one), then exact p99 queue wait from
// the trace analysis, then makespan and mean wait. Under a fault
// profile survival still leads (failed jobs, then goodput) before the
// wait tail. Policies that cannot serve the mix at all — static
// partitioning when a job outgrows a tenant's share — are reported as
// skipped rather than ranked.
func RecommendPolicy(mix FleetMix) (*PolicyRecommendation, error) {
	if mix.Hosts == 0 {
		mix.Hosts = 3
	}
	if mix.GPUs == 0 {
		mix.GPUs = 12
	}
	if mix.BurstGap == 0 {
		mix.BurstGap = 2 * time.Second
	}
	if mix.ItersPerEpoch == 0 {
		mix.ItersPerEpoch = 10
	}
	if len(mix.Classes) == 0 {
		return nil, fmt.Errorf("advisor: empty job mix")
	}
	for _, c := range mix.Classes {
		if c.Count < 1 {
			return nil, fmt.Errorf("advisor: class %q has count %d", c.Workload, c.Count)
		}
	}
	stream := mix.stream()
	slo, err := analyze.ParseSLO(mix.SLO)
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}

	// Optional fault profile: one schedule, replayed against every
	// policy. Everything must heal (MaxPermanentGPUs 0) so the static
	// baseline stays evaluable rather than wedged.
	var plan *faults.Plan
	if mix.MTBF > 0 {
		seed := mix.FaultSeed
		if seed == 0 {
			seed = 1
		}
		p := faults.PlanMTBF(seed, mix.MTBF, faults.Bounds{
			Slots: mix.GPUs, SlotsPerDrawer: falcon.SlotsPerDrawer, Hosts: mix.Hosts,
		})
		plan = &p
	}

	var evaluated, skipped []PolicyEvaluation
	for _, pol := range orchestrator.Policies() {
		env := sim.NewEnv()
		fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{
			Hosts: mix.Hosts, GPUs: mix.GPUs, Preattach: true,
		})
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector()
		col.Attach(env)
		res, err := orchestrator.Run(fleet, stream, orchestrator.Options{Policy: pol, Faults: plan, Obs: col})
		if err != nil {
			skipped = append(skipped, PolicyEvaluation{Policy: pol.Name(), Skipped: err.Error()})
			continue
		}
		an := analyze.FromCollector(col).Analyze()
		ev := PolicyEvaluation{Policy: pol.Name(), Result: res, P99Wait: an.Wait.P99()}
		if !slo.Empty() {
			ev.Health = analyze.Evaluate(slo, an, analyze.FleetStats{
				Goodput: res.Goodput, Utilization: res.Utilization, Known: true,
			})
		}
		evaluated = append(evaluated, ev)
	}
	if len(evaluated) == 0 {
		return nil, fmt.Errorf("advisor: no policy can serve the mix")
	}
	sort.SliceStable(evaluated, func(i, j int) bool {
		x, y := &evaluated[i], &evaluated[j]
		a, b := x.Result, y.Result
		// A policy meeting the declared SLO beats one violating it,
		// whatever the raw numbers say.
		if x.meetsSLO() != y.meetsSLO() {
			return x.meetsSLO()
		}
		if mix.MTBF > 0 {
			// Under faults the metric is recovery: first don't abandon
			// jobs, then deliver useful work fastest.
			if a.FailedJobs != b.FailedJobs {
				return a.FailedJobs < b.FailedJobs
			}
			if a.Goodput != b.Goodput {
				return a.Goodput > b.Goodput
			}
		}
		// Tenant experience before fleet throughput: the p99 wait tail,
		// then makespan, then mean wait.
		if x.P99Wait != y.P99Wait {
			return x.P99Wait < y.P99Wait
		}
		if a.Makespan != b.Makespan {
			return a.Makespan < b.Makespan
		}
		return a.MeanWait < b.MeanWait
	})

	rec := &PolicyRecommendation{
		Mix:    mix,
		Best:   evaluated[0],
		Ranked: append(evaluated, skipped...),
	}
	if mix.MTBF > 0 {
		rec.Rationale = faultyRationale(mix, evaluated)
	} else {
		rec.Rationale = policyRationale(evaluated)
	}
	if mix.SLO != "" {
		healthy := 0
		for i := range evaluated {
			if evaluated[i].meetsSLO() {
				healthy++
			}
		}
		rec.Rationale += fmt.Sprintf(" SLO %q: %d of %d evaluated policies healthy.",
			mix.SLO, healthy, len(evaluated))
	}
	return rec, nil
}

func faultyRationale(mix FleetMix, evaluated []PolicyEvaluation) string {
	best := evaluated[0]
	if len(evaluated) == 1 {
		return fmt.Sprintf("Only %s survives this mix under MTBF %v.", best.Policy, mix.MTBF)
	}
	worst := evaluated[len(evaluated)-1]
	return fmt.Sprintf("Under MTBF %v the metric is goodput, not makespan: %s delivers %.2f "+
		"useful GPU-s/s against %s's %.2f (%d vs %d kills, %.1f vs %.1f GPU-s of work lost "+
		"and re-done from checkpoints).",
		mix.MTBF, best.Policy, best.Result.Goodput, worst.Policy, worst.Result.Goodput,
		best.Result.Kills, worst.Result.Kills,
		best.Result.LostGPUSeconds, worst.Result.LostGPUSeconds)
}

func policyRationale(evaluated []PolicyEvaluation) string {
	best := evaluated[0]
	if len(evaluated) == 1 {
		return fmt.Sprintf("Only %s can serve this mix on the described fleet.", best.Policy)
	}
	// When the wait-tail winner is not the makespan winner, the tail is
	// the story: name the faster-finishing policy the ranking passed over.
	fastest := &evaluated[0]
	for i := range evaluated {
		if evaluated[i].Result.Makespan < fastest.Result.Makespan {
			fastest = &evaluated[i]
		}
	}
	if fastest.Policy != best.Policy {
		return fmt.Sprintf("%s finishes the whole queue sooner (%v vs %v), but %s holds the p99 "+
			"queue wait to %v against %s's %v — the tail, not the makespan, is what a tenant feels.",
			fastest.Policy, fastest.Result.Makespan.Round(time.Millisecond),
			best.Result.Makespan.Round(time.Millisecond), best.Policy,
			best.P99Wait.Round(time.Millisecond), fastest.Policy, fastest.P99Wait.Round(time.Millisecond))
	}
	worst := evaluated[len(evaluated)-1]
	gap := worst.Result.Makespan.Seconds()/best.Result.Makespan.Seconds() - 1
	if gap < 0.05 {
		return fmt.Sprintf("Placement barely matters for this mix (%.0f%% spread): the drawer "+
			"fabric absorbs any layout — choose %s and move on.", gap*100, best.Policy)
	}
	return fmt.Sprintf("%s takes %.0f%% longer than %s on this mix: it needs %d device moves "+
		"to %s's %d, and every move costs a hot-plug window the queue inherits.",
		worst.Policy, gap*100, best.Policy,
		worst.Result.Recompositions, best.Policy, best.Result.Recompositions)
}

// Report renders the recommendation as text.
func (r *PolicyRecommendation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement-policy recommendation for %d job class(es) on %d hosts × %d GPUs\n",
		len(r.Mix.Classes), r.Mix.Hosts, r.Mix.GPUs)
	for _, c := range r.Mix.Classes {
		fmt.Fprintf(&b, "  %d × %s on %d GPUs\n", c.Count, c.Workload, c.GPUs)
	}
	if r.Mix.MTBF > 0 {
		fmt.Fprintf(&b, "  fault profile: MTBF %v (seeded, repairable GPU/drawer/link failures)\n", r.Mix.MTBF)
		fmt.Fprintf(&b, "\n%-10s %14s %9s %6s %7s %10s%s\n", "policy", "makespan", "goodput", "kills", "failed", "lost", sloHeader(r.Mix.SLO))
		for _, e := range r.Ranked {
			if e.Skipped != "" {
				fmt.Fprintf(&b, "%-10s skipped: %s\n", e.Policy, e.Skipped)
				continue
			}
			fmt.Fprintf(&b, "%-10s %14v %7.2f/s %6d %7d %8.1fGs%s\n", e.Policy,
				e.Result.Makespan.Round(time.Millisecond), e.Result.Goodput,
				e.Result.Kills, e.Result.FailedJobs, e.Result.LostGPUSeconds, sloCell(r.Mix.SLO, &e))
		}
	} else {
		fmt.Fprintf(&b, "\n%-10s %14s %14s %14s %8s %8s%s\n", "policy", "makespan", "p99 wait", "mean wait", "moves", "util", sloHeader(r.Mix.SLO))
		for _, e := range r.Ranked {
			if e.Skipped != "" {
				fmt.Fprintf(&b, "%-10s skipped: %s\n", e.Policy, e.Skipped)
				continue
			}
			fmt.Fprintf(&b, "%-10s %14v %14v %14v %8d %7.1f%%%s\n", e.Policy,
				e.Result.Makespan.Round(time.Millisecond), e.P99Wait.Round(time.Millisecond),
				e.Result.MeanWait.Round(time.Millisecond),
				e.Result.Recompositions, e.Result.Utilization*100, sloCell(r.Mix.SLO, &e))
		}
	}
	fmt.Fprintf(&b, "\n→ %s\n\n%s\n", r.Best.Policy, r.Rationale)
	return b.String()
}

// sloHeader and sloCell render the optional SLO verdict column.
func sloHeader(spec string) string {
	if spec == "" {
		return ""
	}
	return "  slo"
}

func sloCell(spec string, e *PolicyEvaluation) string {
	switch {
	case spec == "":
		return ""
	case e.meetsSLO():
		return "   ok"
	default:
		return " FAIL"
	}
}
