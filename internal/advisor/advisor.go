// Package advisor implements the paper's stated future work (§VI): "build
// a system framework that can take the input of various configured runs,
// and recommend the optimal system level topology for AI and HPC
// workloads."
//
// Given a workload, the advisor evaluates candidate compositions on the
// simulator, scores them, and explains the choice in terms of the
// mechanism the paper identifies: whether the workload's gradient
// synchronization fits under the backward-pass overlap window of the
// candidate's interconnect.
package advisor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/collective"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// Evaluation is one candidate's measured outcome.
type Evaluation struct {
	Config cluster.Config
	Result *train.Result
	// PredictedOverhead is the analytic pre-estimate of PCIe switching
	// overhead (fraction ≥ 0), computed before simulation; comparing it
	// with the measured run validates the recommendation.
	PredictedOverhead float64
	// ThroughputSPS is global samples/second — the score.
	ThroughputSPS float64
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Workload string
	Best     Evaluation
	Ranked   []Evaluation // best first
	// Rationale explains the choice using the paper's mechanism.
	Rationale string
	// SoftwareAdvice recommends precision/sharding settings derived from
	// the memory model.
	SoftwareAdvice string
}

// Options tunes the advisor's evaluation runs.
type Options struct {
	ItersPerEpoch int // default 12
	Epochs        int // default 2
}

// Recommend evaluates the three GPU compositions of Table III for the
// workload and returns a ranked recommendation.
func Recommend(w dlmodel.Workload, opts Options) (*Recommendation, error) {
	candidates := []cluster.Config{
		cluster.LocalGPUsConfig(), cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig(),
	}
	if opts.ItersPerEpoch <= 0 {
		opts.ItersPerEpoch = 12
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 2
	}

	evals := make([]Evaluation, 0, len(candidates))
	for _, cfg := range candidates {
		pred, err := PredictOverhead(w, cfg)
		if err != nil {
			return nil, err
		}
		env := sim.NewEnv()
		sys, err := cluster.Compose(env, cfg)
		if err != nil {
			return nil, err
		}
		res, err := train.Run(sys, train.Options{
			Workload:      w,
			Precision:     gpu.FP16,
			Strategy:      train.DDP,
			Epochs:        opts.Epochs,
			ItersPerEpoch: opts.ItersPerEpoch,
		})
		if err != nil {
			return nil, fmt.Errorf("advisor: evaluating %s: %w", cfg.Name, err)
		}
		sps := float64(res.Iters*res.BatchPerGPU*len(sys.GPUs)) / res.TotalTime.Seconds()
		evals = append(evals, Evaluation{
			Config: cfg, Result: res,
			PredictedOverhead: pred, ThroughputSPS: sps,
		})
	}
	sort.Slice(evals, func(i, j int) bool { return evals[i].ThroughputSPS > evals[j].ThroughputSPS })

	rec := &Recommendation{
		Workload: w.Name,
		Best:     evals[0],
		Ranked:   evals,
	}
	rec.Rationale = rationale(w, evals)
	rec.SoftwareAdvice = softwareAdvice(w)
	return rec, nil
}

// PredictOverhead analytically estimates the PCIe switching overhead of a
// configuration for a workload, before running anything: exposed
// communication ≈ max(0, allreduce time − overlappable backward window),
// relative to the compute time. This is the paper's explanation of
// Figure 11 in closed form.
func PredictOverhead(w dlmodel.Workload, cfg cluster.Config) (float64, error) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		return 0, err
	}
	comm, err := collective.New(sys.Net, sys.GPUs)
	if err != nil {
		return 0, err
	}
	// Ring bandwidth: bottleneck edge capacity shared by the two
	// counter-rotating channels, derated by protocol efficiency.
	n := len(sys.GPUs)
	bottleneck := units.BytesPerSec(0)
	ring := comm.Ring()
	for i := range ring {
		a := sys.GPUs[ring[i]].Node
		b := sys.GPUs[ring[(i+1)%n]].Node
		bw, err := sys.Net.PathBottleneck(a, b)
		if err != nil {
			return 0, err
		}
		if bottleneck == 0 || bw < bottleneck {
			bottleneck = bw
		}
	}
	// Cross-host ring edges share the host-adapter link between the two
	// channels, halving the per-channel rate; a single all-reduce moves
	// 2(n−1)/n of the payload through that edge.
	grads := float64(w.GradBytes(gpu.FP16))
	commTime := 2 * float64(n-1) / float64(n) * grads / float64(bottleneck) / comm.RingEfficiency()

	fwd, bwd := w.ComputeTime(sys.GPUs[0].Spec, gpu.FP16, w.BatchPerGPU)
	compute := (fwd + bwd + w.LaunchOverhead).Seconds()
	window := bwd.Seconds() * 3 / 4 // buckets emitted across backward
	exposed := commTime - window
	if exposed < 0 {
		exposed = 0
	}
	return exposed / compute, nil
}

func rationale(w dlmodel.Workload, evals []Evaluation) string {
	var b strings.Builder
	best := evals[0]
	worst := evals[len(evals)-1]
	grads := w.GradBytes(gpu.FP16)
	fmt.Fprintf(&b, "%s synchronizes %v of gradients per iteration. ", w.Name, grads)
	spread := worst.Result.TotalTime.Seconds()/best.Result.TotalTime.Seconds() - 1
	switch {
	case spread < 0.07:
		fmt.Fprintf(&b, "All candidate topologies land within %.0f%% of each other: "+
			"gradient synchronization hides under the backward pass even over the "+
			"PCIe switch, so composed (Falcon-attached) GPUs cost almost nothing — "+
			"choose by availability and let the chassis give you flexibility.", spread*100)
	default:
		fmt.Fprintf(&b, "Topology matters: %s is %.0f%% slower than %s because the "+
			"all-reduce no longer hides under backward compute on the PCIe fabric. "+
			"Keep this model's GPUs NVLink-local.",
			worst.Config.Name, spread*100, best.Config.Name)
	}
	return b.String()
}

func softwareAdvice(w dlmodel.Workload) string {
	var b strings.Builder
	fp16Max := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP16, 1)
	sharded := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP16, 8)
	fmt.Fprintf(&b, "Use FP16 mixed precision with DDP. Max per-GPU batch: %d", fp16Max)
	if sharded > fp16Max {
		fmt.Fprintf(&b, "; ZeRO-2 sharding raises it to %d and is recommended for this model", sharded)
	}
	b.WriteString(".")
	return b.String()
}

// Report renders a recommendation as text.
func (r *Recommendation) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recommendation for %s\n", r.Workload)
	fmt.Fprintf(&b, "%-12s %14s %14s %18s\n", "config", "throughput", "total", "predicted overhead")
	for _, e := range r.Ranked {
		fmt.Fprintf(&b, "%-12s %11.0f/s %14v %17.1f%%\n",
			e.Config.Name, e.ThroughputSPS,
			e.Result.TotalTime.Round(time.Millisecond), e.PredictedOverhead*100)
	}
	fmt.Fprintf(&b, "\n→ %s\n\n%s\n%s\n", r.Best.Config.Name, r.Rationale, r.SoftwareAdvice)
	return b.String()
}
