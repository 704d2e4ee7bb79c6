// Nlpopt: the paper's Figure 16 study — BERT-large fine-tuning under the
// four software configurations (DataParallel vs DistributedDataParallel,
// FP32 vs FP16 mixed precision, ZeRO-2 sharding), on local and
// Falcon-attached GPUs. Demonstrates strategy/precision options and the
// sharding-enabled batch-size increase (6 → 10).
//
//	go run ./examples/nlpopt
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/train"
)

// exampleIters returns the walkthrough's iteration count, honoring the
// EXAMPLES_ITERS override the repo's examples smoke test uses to run every
// example in its quickest mode.
func exampleIters(def int) int {
	if s := os.Getenv("EXAMPLES_ITERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func main() {
	w := dlmodel.BERTLargeWorkload()
	fp32Batch := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP32, 1)
	shardedBatch := w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP16, 8)
	fmt.Printf("BERT-large memory ceilings on 16GB V100: FP32 batch %d, FP16 batch %d, sharded batch %d\n\n",
		fp32Batch, w.MaxBatch(gpu.TeslaV100SXM2, gpu.FP16, 1), shardedBatch)

	variants := []struct {
		label string
		opts  train.Options
	}{
		{"DP  + FP32", train.Options{Strategy: train.DP, Precision: gpu.FP32, BatchPerGPU: fp32Batch}},
		{"DDP + FP32", train.Options{Strategy: train.DDP, Precision: gpu.FP32, BatchPerGPU: fp32Batch}},
		{"DP  + FP16", train.Options{Strategy: train.DP, Precision: gpu.FP16}},
		{"DDP + FP16", train.Options{Strategy: train.DDP, Precision: gpu.FP16}},
		{"DDP + FP16 + sharded", train.Options{Strategy: train.DDP, Precision: gpu.FP16, Sharded: true, BatchPerGPU: shardedBatch}},
	}

	for _, cfg := range []cluster.Config{cluster.LocalGPUsConfig(), cluster.FalconGPUsConfig()} {
		fmt.Printf("=== %s\n", cfg.Name)
		fmt.Printf("%-22s %8s %14s %14s\n", "variant", "batch", "total", "ms/sample")
		for _, v := range variants {
			sys, err := cluster.Compose(sim.NewEnv(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			opts := v.opts
			opts.Workload = w
			opts.Epochs = 2
			opts.ItersPerEpoch = exampleIters(12)
			res, err := train.Run(sys, opts)
			if err != nil {
				log.Fatal(err)
			}
			perSample := res.TotalTime.Seconds() * 1e3 / float64(res.Iters*res.BatchPerGPU)
			fmt.Printf("%-22s %8d %14v %14.1f\n", v.label, res.BatchPerGPU,
				res.TotalTime.Round(1e6), perSample)
		}
		fmt.Println()
	}

	// Demonstrate the OOM boundary the paper reports: batch 7 without
	// sharding does not fit.
	sys, err := cluster.Compose(sim.NewEnv(), cluster.LocalGPUsConfig())
	if err != nil {
		log.Fatal(err)
	}
	_, err = train.Run(sys, train.Options{
		Workload: w, Precision: gpu.FP16, BatchPerGPU: 7, Epochs: 1, ItersPerEpoch: exampleIters(1),
	})
	fmt.Println("batch 7 without sharding:", err)
}
