package scengen

import (
	"fmt"
	"strconv"
	"strings"

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
