package train

import (
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/sim"
)

// runOn composes cfg and trains w on it with small scaled epochs.
func runOn(t *testing.T, cfg cluster.Config, opts Options) *Result {
	t.Helper()
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func quickOpts(w dlmodel.Workload) Options {
	return Options{
		Workload:      w,
		Precision:     gpu.FP16,
		Strategy:      DDP,
		Epochs:        2,
		ItersPerEpoch: 12,
	}
}

func TestSequentialJobsOnOneSystem(t *testing.T) {
	// The same composed system runs several jobs back to back; the
	// virtual clock keeps advancing and results stay self-consistent.
	sys, err := cluster.Compose(sim.NewEnv(), cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Workload:      dlmodel.MobileNetV2Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 5,
	}
	first, err := Run(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalTime <= 0 || second.TotalTime <= 0 {
		t.Fatal("job times not recorded")
	}
	// The second run is warmer (page cache holds the dataset) but the
	// same order of magnitude.
	ratio := second.TotalTime.Seconds() / first.TotalTime.Seconds()
	if ratio < 0.5 || ratio > 1.1 {
		t.Fatalf("second run ratio = %.2f, want warm-cache ≤ first", ratio)
	}
}

func TestResNetTrainsOnLocalGPUs(t *testing.T) {
	res := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	if res.Iters != 24 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// ResNet-50 FP16 batch 128 iterations on V100s land near 130 ms.
	if res.AvgIter < 90*time.Millisecond || res.AvgIter > 220*time.Millisecond {
		t.Fatalf("avg iter = %v, want ~130ms", res.AvgIter)
	}
	if len(res.EpochTimes) != 2 {
		t.Fatalf("epochs recorded = %d", len(res.EpochTimes))
	}
	if res.AvgGPUUtil < 0.7 || res.AvgGPUUtil > 1.0 {
		t.Fatalf("GPU util = %.2f, want >0.7 (paper: >80%%)", res.AvgGPUUtil)
	}
	if res.FalconPCIeGBps != 0 {
		t.Fatalf("local config reported falcon traffic %v", res.FalconPCIeGBps)
	}
}

func TestFalconSlowerThanLocalForBERTLarge(t *testing.T) {
	opts := quickOpts(dlmodel.BERTLargeWorkload())
	local := runOn(t, cluster.LocalGPUsConfig(), opts)
	falcon := runOn(t, cluster.FalconGPUsConfig(), opts)
	ratio := float64(falcon.TotalTime) / float64(local.TotalTime)
	t.Logf("BERT-L local=%v falcon=%v ratio=%.2f falconPCIe=%.1fGB/s",
		local.TotalTime, falcon.TotalTime, ratio, falcon.FalconPCIeGBps)
	// Paper: "BERT-large fine-tuning took almost twice as much time using
	// Falcon-attached GPUs".
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("falcon/local ratio = %.2f, want ≈2", ratio)
	}
	// Paper Figure 12: ≈76 GB/s PCIe traffic for BERT-large on falconGPUs.
	if falcon.FalconPCIeGBps < 55 || falcon.FalconPCIeGBps > 100 {
		t.Errorf("falcon PCIe traffic = %.1f GB/s, want ≈76", falcon.FalconPCIeGBps)
	}
}

func TestVisionOverheadSmallOnFalcon(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	local := runOn(t, cluster.LocalGPUsConfig(), opts)
	falcon := runOn(t, cluster.FalconGPUsConfig(), opts)
	overhead := float64(falcon.TotalTime)/float64(local.TotalTime) - 1
	t.Logf("ResNet-50 local=%v falcon=%v overhead=%.1f%%", local.TotalTime, falcon.TotalTime, overhead*100)
	// Paper: vision training is less than 7% slower on Falcon configs.
	if overhead < -0.02 || overhead > 0.08 {
		t.Errorf("ResNet-50 falcon overhead = %.1f%%, want < 7%%", overhead*100)
	}
}

func TestOOMBeyondBatchCeiling(t *testing.T) {
	opts := quickOpts(dlmodel.BERTLargeWorkload())
	opts.BatchPerGPU = 7 // paper: 6 is the ceiling without sharding
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(sys, opts)
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("expected OOM for batch 7, got %v", err)
	}
	// Sharding admits batch 10 (paper §V-C-4).
	opts.BatchPerGPU = 10
	opts.Sharded = true
	env2 := sim.NewEnv()
	sys2, err := cluster.Compose(env2, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys2, opts); err != nil {
		t.Fatalf("sharded batch 10 should fit: %v", err)
	}
}

func TestDPSlowerThanDDP(t *testing.T) {
	base := quickOpts(dlmodel.BERTLargeWorkload())
	ddp := runOn(t, cluster.LocalGPUsConfig(), base)
	dp := base
	dp.Strategy = DP
	dpRes := runOn(t, cluster.LocalGPUsConfig(), dp)
	t.Logf("BERT-L DDP=%v DP=%v", ddp.TotalTime, dpRes.TotalTime)
	if dpRes.TotalTime <= ddp.TotalTime {
		t.Fatal("DP should be slower than DDP")
	}
}

func TestFP16FasterThanFP32(t *testing.T) {
	fp16 := quickOpts(dlmodel.BERTLargeWorkload())
	fp32 := fp16
	fp32.Precision = gpu.FP32
	fp32.BatchPerGPU = 3 // FP32 activations don't fit batch 6
	r16 := runOn(t, cluster.LocalGPUsConfig(), fp16)
	r32 := runOn(t, cluster.LocalGPUsConfig(), fp32)
	// Compare per-sample time: FP16 must be >50% faster (paper §V-C-4).
	perSample16 := r16.TotalTime.Seconds() / float64(r16.Iters*r16.BatchPerGPU)
	perSample32 := r32.TotalTime.Seconds() / float64(r32.Iters*r32.BatchPerGPU)
	speedup := perSample32/perSample16 - 1
	t.Logf("BERT-L fp32=%.1fms/sample fp16=%.1fms/sample speedup=%.0f%%",
		perSample32*1e3, perSample16*1e3, speedup*100)
	if speedup < 0.5 {
		t.Errorf("FP16 speedup = %.0f%%, want > 50%%", speedup*100)
	}
}

func TestCPUUtilVisionAboveNLP(t *testing.T) {
	vision := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	nlp := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.BERTBaseWorkload()))
	t.Logf("CPU util: ResNet=%.1f%% BERT=%.1f%%", vision.AvgCPUUtil*100, nlp.AvgCPUUtil*100)
	if vision.AvgCPUUtil <= nlp.AvgCPUUtil {
		t.Error("vision should exercise the CPU more than NLP (paper §V-C-2)")
	}
	// Neither stresses the CPU (paper Figure 13).
	if vision.AvgCPUUtil > 0.6 {
		t.Errorf("ResNet CPU util = %.1f%%, too high", vision.AvgCPUUtil*100)
	}
}

func TestHostMemoryModest(t *testing.T) {
	res := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	if res.AvgHostMemUtil > 0.5 {
		t.Errorf("host memory util = %.1f%%, paper shows no memory stress", res.AvgHostMemUtil*100)
	}
	if res.AvgHostMemUtil <= 0 {
		t.Error("host memory util not recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOn(t, cluster.FalconGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	b := runOn(t, cluster.FalconGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	if a.TotalTime != b.TotalTime {
		t.Fatalf("non-deterministic: %v vs %v", a.TotalTime, b.TotalTime)
	}
}

func TestGPUMemUtilHigherForBERT(t *testing.T) {
	bert := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.BERTLargeWorkload()))
	mob := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.MobileNetV2Workload()))
	t.Logf("GPU mem: BERT-L=%.0f%% MobileNet=%.0f%%", bert.AvgGPUMemUtil*100, mob.AvgGPUMemUtil*100)
	if bert.AvgGPUMemUtil <= mob.AvgGPUMemUtil {
		t.Error("BERT-large should stress GPU memory more than MobileNetV2")
	}
	if bert.AvgGPUMemUtil < 0.8 {
		t.Errorf("BERT-large GPU mem util = %.0f%%, want high", bert.AvgGPUMemUtil*100)
	}
}

func TestInvalidOptions(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, Options{Workload: dlmodel.ResNet50Workload()}); err == nil {
		t.Error("missing ItersPerEpoch should fail")
	}
	opts := quickOpts(dlmodel.ResNet50Workload())
	opts.Strategy = DP
	opts.Sharded = true
	if _, err := Run(sys, opts); err == nil {
		t.Error("sharded DP should be rejected")
	}
}

func TestEpochTimesSumToTotal(t *testing.T) {
	res := runOn(t, cluster.LocalGPUsConfig(), quickOpts(dlmodel.ResNet50Workload()))
	var sum time.Duration
	for _, e := range res.EpochTimes {
		sum += e
	}
	// Epoch boundaries are rank-0 observations; the run ends when the
	// last rank finishes, so the sum trails the total by less than an
	// iteration.
	if diff := res.TotalTime - sum; diff < 0 || diff > res.AvgIter {
		t.Fatalf("epochs sum %v vs total %v (avg iter %v)", sum, res.TotalTime, res.AvgIter)
	}
}

func TestShardedCommunicatesLessPerGPU(t *testing.T) {
	// ZeRO-2 at the same batch should not be slower than plain DDP on
	// falcon GPUs (reduce-scatter + all-gather ≈ all-reduce volume), and
	// it must free memory.
	base := quickOpts(dlmodel.BERTLargeWorkload())
	plain := runOn(t, cluster.FalconGPUsConfig(), base)
	sharded := base
	sharded.Sharded = true
	sh := runOn(t, cluster.FalconGPUsConfig(), sharded)
	if sh.PeakGPUMem >= plain.PeakGPUMem {
		t.Fatalf("sharded peak %v not below plain %v", sh.PeakGPUMem, plain.PeakGPUMem)
	}
	ratio := sh.TotalTime.Seconds() / plain.TotalTime.Seconds()
	if ratio > 1.15 {
		t.Fatalf("sharded/plain time = %.2f, want ≈1", ratio)
	}
}

func TestCheckpointDipsVisibleInSeries(t *testing.T) {
	opts := quickOpts(dlmodel.BERTLargeWorkload())
	opts.ItersPerEpoch = 15
	res := runOn(t, cluster.LocalGPUsConfig(), opts)
	s := res.Samples.Series(SeriesGPUUtil)
	if s.Min() >= s.Mean()*0.8 {
		t.Fatalf("no utilization dips visible: min %.2f mean %.2f (Figure 9 pattern)", s.Min(), s.Mean())
	}
}

func TestUtilizationSeriesBounded(t *testing.T) {
	res := runOn(t, cluster.FalconGPUsConfig(), quickOpts(dlmodel.BERTLargeWorkload()))
	for _, name := range []string{SeriesGPUUtil, SeriesCPUUtil, SeriesGPUMemUtil, SeriesHostMem} {
		s := res.Samples.Series(name)
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		if s.Max() > 1.0000001 || s.Min() < 0 {
			t.Fatalf("%s out of [0,1]: min %.3f max %.3f", name, s.Min(), s.Max())
		}
	}
}

func TestHybridAndFalconBothChargePortTraffic(t *testing.T) {
	hybrid := runOn(t, cluster.HybridGPUsConfig(), quickOpts(dlmodel.BERTBaseWorkload()))
	falcon := runOn(t, cluster.FalconGPUsConfig(), quickOpts(dlmodel.BERTBaseWorkload()))
	if hybrid.FalconPCIeGBps <= 0 {
		t.Fatal("hybrid reported no falcon traffic")
	}
	// Hybrid has half the monitored ports: roughly half the traffic.
	ratio := falcon.FalconPCIeGBps / hybrid.FalconPCIeGBps
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("falcon/hybrid traffic ratio = %.2f, want ≈2", ratio)
	}
}
