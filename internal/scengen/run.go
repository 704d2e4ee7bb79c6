package scengen

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/invariant"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// Outcome is one executed scenario: the training result, the invariant set
// that watched the run, and a canonical fingerprint of every deterministic
// output — two executions of the same scenario must produce byte-identical
// fingerprints.
type Outcome struct {
	Scenario    Scenario
	Result      *train.Result
	Inv         *invariant.Set
	Fingerprint string
}

// Violations returns the invariant violations the run accumulated.
func (o *Outcome) Violations() []invariant.Violation { return o.Inv.Violations() }

// Err returns nil when every invariant held.
func (o *Outcome) Err() error { return o.Inv.Err() }

// Run executes the scenario end to end on a fresh simulation with the full
// invariant probe set attached: sim event-time monotonicity, fabric
// capacity/byte conservation, training lifecycle monotonicity, and the
// post-run structural checks. A non-nil error means the scenario failed to
// compose or train; invariant violations are reported on the Outcome.
func Run(sc Scenario) (*Outcome, error) {
	return run(sim.NewEnv(), sc, 1)
}

// run is Run on a caller-supplied fresh environment (the sweep attaches
// an event digest first), with the fabric speedup used by the
// metamorphic checks: before any flow starts, every link capacity is
// multiplied by linkScale.
func run(env *sim.Env, sc Scenario, linkScale float64) (*Outcome, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, err
	}
	sys, err := cluster.Compose(env, sc.Config())
	if err != nil {
		return nil, fmt.Errorf("scengen: compose %s: %w", sc.ID(), err)
	}
	if linkScale != 1 {
		scaleLinks(sys, linkScale)
	}
	inv := invariant.New()
	inv.Watch(sys)
	opts.Probe = inv.TrainProbe()
	res, err := train.Run(sys, opts)
	if err != nil {
		return nil, fmt.Errorf("scengen: train %s: %w", sc.ID(), err)
	}
	inv.CheckResult(sys, res)
	return &Outcome{Scenario: sc, Result: res, Inv: inv, Fingerprint: Fingerprint(res)}, nil
}

// scaleLinks multiplies every fabric link capacity (both directions) by
// factor. It must run before any flow starts.
func scaleLinks(sys *cluster.System, factor float64) {
	for _, l := range sys.Net.Links() {
		l.CapAtoB = units.BytesPerSec(float64(l.CapAtoB) * factor)
		l.CapBtoA = units.BytesPerSec(float64(l.CapBtoA) * factor)
	}
}

// Fingerprint canonically renders every deterministic scalar of a result.
// Floats are encoded exactly (shortest round-trip form), so two runs match
// if and only if they are bit-identical.
func Fingerprint(res *train.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sys=%s wl=%s strat=%s prec=%v sharded=%t batch=%d epochs=%d iters=%d\n",
		res.System, res.Workload, res.Strategy, res.Precision, res.Sharded,
		res.BatchPerGPU, res.Epochs, res.Iters)
	fmt.Fprintf(&b, "total=%d avgIter=%d peakMem=%d\n",
		int64(res.TotalTime), int64(res.AvgIter), int64(res.PeakGPUMem))
	b.WriteString("epochs=")
	for i, e := range res.EpochTimes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(e), 10))
	}
	b.WriteByte('\n')
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"gpuUtil", res.AvgGPUUtil},
		{"gpuMem", res.AvgGPUMemUtil},
		{"cpuUtil", res.AvgCPUUtil},
		{"hostMem", res.AvgHostMemUtil},
		{"memAccess", res.MemAccessFrac},
		{"falconGBps", res.FalconPCIeGBps},
	} {
		b.WriteString(f.name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(f.v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// Metamorphic relations. Each check runs a scenario and a transformed
// sibling and asserts the physically necessary ordering between them, with
// a small tolerance for float scheduling noise.

// fasterFabricScale is the link speedup used by CheckFasterFabricNotSlower.
const fasterFabricScale = 4.0

// metamorphicSlack bounds the tolerated inversion: a relative fraction of
// the baseline plus an absolute floor.
func metamorphicSlack(base time.Duration) time.Duration {
	s := base / 1000 // 0.1%
	if s < time.Millisecond {
		s = time.Millisecond
	}
	return s
}

// CheckFasterFabricNotSlower asserts that the same workload on a strictly
// faster fabric (every link capacity ×4, latencies unchanged) never trains
// slower. Compute, storage media rates and endpoint overheads are
// unchanged, so total time must be monotone nonincreasing.
func CheckFasterFabricNotSlower(sc Scenario) error {
	base, err := Run(sc)
	if err != nil {
		return err
	}
	if berr := base.Err(); berr != nil {
		return fmt.Errorf("scengen: baseline run of %s: %w", sc.ID(), berr)
	}
	fast, err := run(sim.NewEnv(), sc, fasterFabricScale)
	if err != nil {
		return err
	}
	if ferr := fast.Err(); ferr != nil {
		return fmt.Errorf("scengen: scaled-fabric run of %s: %w", sc.ID(), ferr)
	}
	b, f := base.Result.TotalTime, fast.Result.TotalTime
	if f > b+metamorphicSlack(b) {
		return fmt.Errorf("scengen: metamorphic faster-fabric violated on %s: %v (×%g links) > %v (baseline)",
			sc.ID(), f, fasterFabricScale, b)
	}
	return nil
}

// CheckMoreItersNotFaster asserts that doubling the iteration count never
// reduces total training time — work is strictly additive in this engine.
func CheckMoreItersNotFaster(sc Scenario) error {
	base, err := Run(sc)
	if err != nil {
		return err
	}
	if berr := base.Err(); berr != nil {
		return fmt.Errorf("scengen: baseline run of %s: %w", sc.ID(), berr)
	}
	longer := sc
	longer.ItersPerEpoch *= 2
	long, err := Run(longer)
	if err != nil {
		return err
	}
	if lerr := long.Err(); lerr != nil {
		return fmt.Errorf("scengen: doubled-iters run of %s: %w", sc.ID(), lerr)
	}
	b, l := base.Result.TotalTime, long.Result.TotalTime
	if l+metamorphicSlack(b) < b {
		return fmt.Errorf("scengen: metamorphic more-iters violated on %s: %d iters in %v < %d iters in %v",
			sc.ID(), long.Result.Iters, l, base.Result.Iters, b)
	}
	return nil
}

// CheckShardedPeakNotLarger asserts ZeRO-2 sharding never increases the
// per-GPU memory high-water mark at equal batch: sharding divides gradient
// and optimizer state, touching nothing else. Scenarios whose batch only
// fits sharded are skipped (nil error) — there is no unsharded sibling to
// compare against.
func CheckShardedPeakNotLarger(sc Scenario) error {
	plain := sc
	plain.Strategy = train.DDP
	plain.Sharded = false
	plain = Sanitize(plain)
	if plain.Sharded {
		// Sanitize's relief valve re-enabled sharding: the workload does
		// not fit unsharded at all, so there is no sibling to compare.
		return nil
	}
	shard := plain
	shard.Sharded = true
	shard = Sanitize(shard)
	shard.BatchPerGPU = plain.BatchPerGPU // equal batch, known to fit unsharded
	pres, err := Run(plain)
	if err != nil {
		return err
	}
	if perr := pres.Err(); perr != nil {
		return fmt.Errorf("scengen: unsharded run of %s: %w", plain.ID(), perr)
	}
	sres, err := Run(shard)
	if err != nil {
		return err
	}
	if serr := sres.Err(); serr != nil {
		return fmt.Errorf("scengen: sharded run of %s: %w", shard.ID(), serr)
	}
	if sres.Result.PeakGPUMem > pres.Result.PeakGPUMem {
		return fmt.Errorf("scengen: metamorphic sharded-memory violated on %s: sharded peak %v > plain peak %v",
			sc.ID(), sres.Result.PeakGPUMem, pres.Result.PeakGPUMem)
	}
	return nil
}
