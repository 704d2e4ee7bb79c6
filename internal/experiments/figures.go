package experiments

import (
	"fmt"
	"strings"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/train"
)

// Figure9 renders the GPU-utilization pattern of every benchmark over a
// full (scaled) training run on the localGPUs configuration, as sparkline
// panels — the analog of the paper's five utilization plots. The periodic
// dips are the checkpoint/synchronization pauses the paper calls out.
func Figure9(s *Session) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "GPU utilization over training (localGPUs), 1 char ≈ 1 sample window\n")
	for _, w := range dlmodel.Benchmarks() {
		res, err := s.RunOpts(cluster.LocalGPUsConfig(), w, fp16DDP())
		if err != nil {
			return "", err
		}
		series := res.Samples.Series(train.SeriesGPUUtil)
		fmt.Fprintf(&b, "%-12s |%s| mean %5.1f%%  min %5.1f%%\n",
			w.Name, series.Sparkline(60), series.Mean()*100, series.Min()*100)
	}
	return b.String(), nil
}

// Figure10 reports GPU utilization, GPU memory utilization and the share
// of time spent accessing GPU memory for every benchmark on the three GPU
// configurations.
func Figure10(s *Session) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %10s %12s %12s\n",
		"Benchmark", "Config", "GPU util", "GPU mem", "Mem access")
	for _, w := range dlmodel.Benchmarks() {
		for _, cfg := range gpuConfigs() {
			res, err := s.RunOpts(cfg, w, fp16DDP())
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-12s %-12s %9.1f%% %11.1f%% %11.1f%%\n",
				w.Name, cfg.Name, res.AvgGPUUtil*100, res.AvgGPUMemUtil*100, res.MemAccessFrac*100)
		}
	}
	return b.String(), nil
}

// Figure11Data computes the percentage training-time change of hybridGPUs
// and falconGPUs relative to localGPUs for every benchmark.
func Figure11Data(s *Session) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	for _, w := range dlmodel.Benchmarks() {
		base, err := s.RunOpts(cluster.LocalGPUsConfig(), w, fp16DDP())
		if err != nil {
			return nil, err
		}
		out[w.Name] = make(map[string]float64)
		for _, cfg := range []cluster.Config{cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig()} {
			res, err := s.RunOpts(cfg, w, fp16DDP())
			if err != nil {
				return nil, err
			}
			out[w.Name][cfg.Name] = PercentChange(base, res)
		}
	}
	return out, nil
}

// Figure11 renders the PCIe-switching overhead chart.
func Figure11(s *Session) (string, error) {
	data, err := Figure11Data(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Training-time change vs localGPUs (positive = slower)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Benchmark", "hybridGPUs", "falconGPUs")
	for _, w := range dlmodel.Benchmarks() {
		fmt.Fprintf(&b, "%-12s %+11.1f%% %+11.1f%%\n",
			w.Name, data[w.Name]["hybridGPUs"], data[w.Name]["falconGPUs"])
	}
	return b.String(), nil
}

// Figure12Data computes the average PCIe traffic (GB/s, ingress+egress of
// the Falcon GPU slot ports) for the two Falcon GPU configurations.
func Figure12Data(s *Session) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	for _, w := range dlmodel.Benchmarks() {
		out[w.Name] = make(map[string]float64)
		for _, cfg := range []cluster.Config{cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig()} {
			res, err := s.RunOpts(cfg, w, fp16DDP())
			if err != nil {
				return nil, err
			}
			out[w.Name][cfg.Name] = res.FalconPCIeGBps
		}
	}
	return out, nil
}

// Figure12 renders the Falcon PCIe traffic chart.
func Figure12(s *Session) (string, error) {
	data, err := Figure12Data(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PCIe data transfer rate of Falcon GPU ports (GB/s)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Benchmark", "hybridGPUs", "falconGPUs")
	for _, w := range dlmodel.Benchmarks() {
		fmt.Fprintf(&b, "%-12s %12.2f %12.2f\n",
			w.Name, data[w.Name]["hybridGPUs"], data[w.Name]["falconGPUs"])
	}
	return b.String(), nil
}

// hostUtilFigure renders one benchmark × GPU-configuration percentage
// grid — the shared shape of Figures 13 and 14.
func hostUtilFigure(s *Session, metric func(*train.Result) float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "Benchmark", "localGPUs", "hybridGPUs", "falconGPUs")
	for _, w := range dlmodel.Benchmarks() {
		fmt.Fprintf(&b, "%-12s", w.Name)
		for _, cfg := range gpuConfigs() {
			res, err := s.RunOpts(cfg, w, fp16DDP())
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %11.1f%%", metric(res)*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// Figure13 reports CPU utilization per benchmark per GPU configuration.
func Figure13(s *Session) (string, error) {
	return hostUtilFigure(s, func(res *train.Result) float64 { return res.AvgCPUUtil })
}

// Figure14 reports host memory utilization per benchmark per configuration.
func Figure14(s *Session) (string, error) {
	return hostUtilFigure(s, func(res *train.Result) float64 { return res.AvgHostMemUtil })
}

// Figure15Data computes the percentage training-time change of the two
// NVMe storage configurations relative to localGPUs (negative = faster).
func Figure15Data(s *Session) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	for _, w := range dlmodel.Benchmarks() {
		base, err := s.RunOpts(cluster.LocalGPUsConfig(), w, fp16DDP())
		if err != nil {
			return nil, err
		}
		out[w.Name] = make(map[string]float64)
		for _, cfg := range storageConfigs() {
			res, err := s.RunOpts(cfg, w, fp16DDP())
			if err != nil {
				return nil, err
			}
			out[w.Name][cfg.Name] = PercentChange(base, res)
		}
	}
	return out, nil
}

// Figure15 renders the storage-configuration chart.
func Figure15(s *Session) (string, error) {
	data, err := Figure15Data(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Training-time change vs localGPUs (negative = faster)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Benchmark", "localNVMe", "falconNVMe")
	for _, w := range dlmodel.Benchmarks() {
		fmt.Fprintf(&b, "%-12s %+11.1f%% %+11.1f%%\n",
			w.Name, data[w.Name]["localNVMe"], data[w.Name]["falconNVMe"])
	}
	return b.String(), nil
}

// SoftOptResult is one bar of Figure 16.
type SoftOptResult struct {
	Label       string
	Config      string
	BatchPerGPU int
	// PerSampleMs is training time per sample (lower is better) — the
	// scale-free version of the figure's y axis.
	PerSampleMs float64
}

// Figure16Data runs the BERT-large software-optimization grid of §V-C-4 on
// the local and Falcon GPU configurations: DataParallel vs
// DistributedDataParallel, FP32 vs FP16 mixed precision, and ZeRO-2
// sharding (which lifts the per-GPU batch from 6 to 10).
func Figure16Data(s *Session) ([]SoftOptResult, error) {
	w := dlmodel.BERTLargeWorkload()
	fp32Batch := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP32, 1)
	shardedBatch := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP16, 8)
	variants := []struct {
		label string
		opts  train.Options
	}{
		{"DP-FP32", train.Options{Strategy: train.DP, Precision: gpu.FP32, BatchPerGPU: fp32Batch}},
		{"DDP-FP32", train.Options{Strategy: train.DDP, Precision: gpu.FP32, BatchPerGPU: fp32Batch}},
		{"DP-FP16", train.Options{Strategy: train.DP, Precision: gpu.FP16}},
		{"DDP-FP16", train.Options{Strategy: train.DDP, Precision: gpu.FP16}},
		{"DDP-FP16-sharded(b10)", train.Options{Strategy: train.DDP, Precision: gpu.FP16, Sharded: true, BatchPerGPU: shardedBatch}},
	}
	var out []SoftOptResult
	for _, cfg := range []cluster.Config{cluster.LocalGPUsConfig(), cluster.FalconGPUsConfig()} {
		for _, v := range variants {
			res, err := s.RunOpts(cfg, w, v.opts)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", v.label, cfg.Name, err)
			}
			out = append(out, SoftOptResult{
				Label:       v.label,
				Config:      cfg.Name,
				BatchPerGPU: res.BatchPerGPU,
				PerSampleMs: res.TotalTime.Seconds() * 1e3 / float64(res.Iters*res.BatchPerGPU),
			})
		}
	}
	return out, nil
}

// Figure16 renders the software-optimization study.
func Figure16(s *Session) (string, error) {
	rows, err := Figure16Data(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BERT-large fine-tuning (SQuAD): software-level optimizations\n")
	fmt.Fprintf(&b, "%-24s %-12s %8s %16s\n", "Variant", "Config", "batch", "ms/sample")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-12s %8d %16.1f\n", r.Label, r.Config, r.BatchPerGPU, r.PerSampleMs)
	}
	return b.String(), nil
}
