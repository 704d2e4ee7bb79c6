// Package scengen generates random — but always valid — composed-system
// scenarios beyond the paper's fixed evaluation grid: arbitrary GPU
// counts and drawer packings, chassis GPU models, storage tiers, Table II
// workloads and software knobs (DDP/DP, FP16/FP32, ZeRO-2 sharding,
// bucket/worker/channel counts). Generation is seeded and deterministic,
// so every scenario is reproducible from one int64.
//
// The package pairs each scenario with the internal/invariant probe set:
// Run composes the system, wires the invariant checkers into the sim
// engine, the fabric allocator and the training loop, trains, and returns
// the result plus a canonical fingerprint used for run-twice determinism
// checks. It backs the TestScenarioSweep tier, the FuzzComposeAndTrain
// fuzz target and `composer -random`.
package scengen

import (
	"fmt"
	"math/rand"
	"strings"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/train"
)

// Scenario is one fully specified composed-system experiment: a host
// configuration plus a workload and its software configuration. A Scenario
// produced by FromSeed or Sanitize is valid by construction: it composes
// without error and its batch fits device memory.
type Scenario struct {
	// Seed records provenance (the FromSeed input); it does not affect
	// execution — the simulation itself is deterministic.
	Seed int64

	// Hardware composition.
	LocalGPUs    int    // host-local V100 SXM2 on the NVLink mesh, 0..8
	FalconGPUs   int    // chassis-attached GPUs, 0..8
	SingleDrawer bool   // pack all Falcon GPUs into drawer 0 (§III-B)
	FalconModel  string // "V100" or "P100"; "" when FalconGPUs == 0
	Storage      cluster.StorageKind

	// Workload and software configuration.
	Workload    string // Table II benchmark name
	Strategy    train.Strategy
	Precision   gpu.Precision
	Sharded     bool
	BatchPerGPU int // resolved by Sanitize to fit device memory

	// Run length and tuning knobs.
	Epochs        int
	ItersPerEpoch int
	Buckets       int
	Workers       int
	Channels      int // 0 = collective library default
}

// Generation bounds. Iteration counts are kept small: the scenario tier
// exists to cover the composition space, not to re-measure the paper.
const (
	maxEpochs = 2
	maxIters  = 12 // Sanitize clamp; FromSeed draws 2..4
)

// FromSeed derives one valid scenario from a seed. Equal seeds yield equal
// scenarios; the mapping is fixed (a change to it invalidates checked-in
// sweep expectations, so extend ranges rather than reorder draws).
func FromSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	sc.LocalGPUs = rng.Intn(9)
	sc.FalconGPUs = rng.Intn(9)
	sc.SingleDrawer = rng.Intn(2) == 1
	if rng.Intn(4) == 0 { // P100 drawers are the rarer composition
		sc.FalconModel = "P100"
	} else {
		sc.FalconModel = "V100"
	}
	sc.Storage = []cluster.StorageKind{
		cluster.StorageBaseline, cluster.StorageLocalNVMe, cluster.StorageFalconNVMe,
	}[rng.Intn(3)]
	bench := dlmodel.Benchmarks()
	sc.Workload = bench[rng.Intn(len(bench))].Name
	if rng.Intn(4) == 0 { // DP is the ablation case; weight DDP
		sc.Strategy = train.DP
	} else {
		sc.Strategy = train.DDP
	}
	if rng.Intn(3) == 0 {
		sc.Precision = gpu.FP32
	} else {
		sc.Precision = gpu.FP16
	}
	sc.Sharded = rng.Intn(4) == 0
	if rng.Intn(2) == 0 {
		sc.BatchPerGPU = 0 // paper default, clamped to fit by Sanitize
	} else {
		sc.BatchPerGPU = 1 + rng.Intn(128)
	}
	sc.Epochs = 1 + rng.Intn(maxEpochs)
	sc.ItersPerEpoch = 2 + rng.Intn(3)
	sc.Buckets = 1 + rng.Intn(8)
	sc.Workers = 4 * (1 + rng.Intn(6))
	sc.Channels = rng.Intn(4)
	return Sanitize(sc)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sanitize maps an arbitrary scenario onto the nearest valid one: counts
// are clamped into composable ranges, contradictory knobs are resolved
// (sharding requires DDP; drawer packing and chassis model need Falcon
// GPUs), and the batch is fitted to the smallest GPU's memory. It is
// idempotent, and every scenario it returns trains without composition or
// OOM errors — the property FuzzComposeAndTrain hammers on.
func Sanitize(sc Scenario) Scenario {
	sc.LocalGPUs = clamp(sc.LocalGPUs, 0, 8)
	sc.FalconGPUs = clamp(sc.FalconGPUs, 0, 8)
	// The collective layer needs a group of at least two.
	if sc.LocalGPUs+sc.FalconGPUs < 2 {
		if sc.FalconGPUs > 0 {
			sc.FalconGPUs = 2
		} else {
			sc.LocalGPUs = 2
		}
	}
	if sc.FalconGPUs == 0 {
		sc.SingleDrawer = false
		sc.FalconModel = ""
	} else if sc.FalconModel != "P100" {
		sc.FalconModel = "V100"
	}
	switch sc.Storage {
	case cluster.StorageBaseline, cluster.StorageLocalNVMe, cluster.StorageFalconNVMe:
	default:
		sc.Storage = cluster.StorageBaseline
	}
	if _, err := dlmodel.BenchmarkByName(sc.Workload); err != nil {
		sc.Workload = "ResNet-50"
	}
	if sc.Strategy != train.DP {
		sc.Strategy = train.DDP
	}
	if sc.Precision != gpu.FP16 {
		sc.Precision = gpu.FP32
	}
	if sc.Strategy != train.DDP {
		sc.Sharded = false
	}
	sc.Epochs = clamp(sc.Epochs, 1, maxEpochs)
	sc.ItersPerEpoch = clamp(sc.ItersPerEpoch, 1, maxIters)
	sc.Buckets = clamp(sc.Buckets, 1, 8)
	sc.Workers = clamp(sc.Workers, 1, 32)
	sc.Channels = clamp(sc.Channels, 0, 4)

	// Fit the batch to the tightest device: the admission check in train
	// is all-or-nothing, so the smallest GPU bounds everyone.
	w, _ := dlmodel.BenchmarkByName(sc.Workload)
	maxB := sc.maxBatch(w)
	if maxB < 1 {
		// No batch fits (a heavy workload at FP32 on a small part): fall
		// back to the relief valves the paper itself used — sharding, then
		// mixed precision.
		if sc.Strategy == train.DDP {
			sc.Sharded = true
			maxB = sc.maxBatch(w)
		}
		if maxB < 1 {
			sc.Precision = gpu.FP16
			maxB = sc.maxBatch(w)
		}
		if maxB < 1 {
			maxB = 1 // unreachable with the current catalog; keep valid
		}
	}
	if sc.BatchPerGPU == 0 {
		sc.BatchPerGPU = w.BatchPerGPU
	}
	sc.BatchPerGPU = clamp(sc.BatchPerGPU, 1, maxB)
	return sc
}

// maxBatch returns the largest per-GPU batch that fits every GPU model in
// the composition under the scenario's precision and sharding degree.
func (sc Scenario) maxBatch(w dlmodel.Workload) int {
	shards := 1
	if sc.Sharded {
		shards = sc.LocalGPUs + sc.FalconGPUs
	}
	best := -1
	for _, spec := range sc.gpuSpecs() {
		b := w.MaxBatch(spec, sc.Precision, shards)
		if best == -1 || b < best {
			best = b
		}
	}
	return best
}

// gpuSpecs lists the distinct GPU parts the composition uses.
func (sc Scenario) gpuSpecs() []gpu.Spec {
	var specs []gpu.Spec
	if sc.LocalGPUs > 0 {
		specs = append(specs, gpu.TeslaV100SXM2)
	}
	if sc.FalconGPUs > 0 {
		if sc.FalconModel == "P100" {
			specs = append(specs, gpu.TeslaP100)
		} else {
			specs = append(specs, gpu.TeslaV100PCIe)
		}
	}
	return specs
}

// Config renders the scenario's hardware side as a cluster configuration.
func (sc Scenario) Config() cluster.Config {
	return cluster.Config{
		Name:           sc.systemName(),
		LocalGPUs:      sc.LocalGPUs,
		FalconGPUs:     sc.FalconGPUs,
		Storage:        sc.Storage,
		SingleDrawer:   sc.SingleDrawer,
		FalconGPUModel: sc.FalconModel,
	}
}

// systemName is the compact hardware half of the scenario ID.
func (sc Scenario) systemName() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rand-L%d", sc.LocalGPUs)
	if sc.FalconGPUs > 0 {
		fmt.Fprintf(&b, "F%d%s", sc.FalconGPUs, sc.FalconModel)
		if sc.SingleDrawer {
			b.WriteString("sd")
		}
	}
	fmt.Fprintf(&b, "-%s", sc.Storage)
	return b.String()
}

// Options renders the scenario's software side as training options.
func (sc Scenario) Options() (train.Options, error) {
	w, err := dlmodel.BenchmarkByName(sc.Workload)
	if err != nil {
		return train.Options{}, fmt.Errorf("scengen: %w", err)
	}
	return train.Options{
		Workload:      w,
		Precision:     sc.Precision,
		Strategy:      sc.Strategy,
		Sharded:       sc.Sharded,
		BatchPerGPU:   sc.BatchPerGPU,
		Epochs:        sc.Epochs,
		ItersPerEpoch: sc.ItersPerEpoch,
		Buckets:       sc.Buckets,
		Workers:       sc.Workers,
		Channels:      sc.Channels,
	}, nil
}

// ID is a compact, deterministic description of the full scenario, usable
// as a log label.
func (sc Scenario) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s+%v", sc.systemName(), sc.Workload, sc.Strategy, sc.Precision)
	if sc.Sharded {
		b.WriteString("+sharded")
	}
	fmt.Fprintf(&b, "/b%d-e%d-i%d-k%d-w%d-c%d",
		sc.BatchPerGPU, sc.Epochs, sc.ItersPerEpoch, sc.Buckets, sc.Workers, sc.Channels)
	return b.String()
}
