// Quickstart: compose a system, train ResNet-50 on it, and print the
// measured summary — the smallest end-to-end use of the platform.
//
//	go run ./examples/quickstart
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
	// Compose the paper's localGPUs configuration: eight NVLink-attached
	// V100s with baseline local storage (Table III row 1).
	sys, err := cluster.Compose(sim.NewEnv(), cluster.LocalGPUsConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("composed:", sys.Cfg.Name, "—", sys.Cfg.Description())
	fmt.Printf("GPUs: %d (%s)\n\n", len(sys.GPUs), sys.GPUs[0].Spec.Name)

	// Train ResNet-50 with the paper's hyperparameters (batch 128/GPU,
	// FP16 mixed precision, DistributedDataParallel) on a scaled epoch.
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.ResNet50Workload(),
		Precision:     gpu.FP16,
		Strategy:      train.DDP,
		Epochs:        2,
		ItersPerEpoch: exampleIters(25),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trained %s for %d iterations in %v (%.0f img/s global)\n",
		res.Workload, res.Iters, res.TotalTime,
		float64(res.Iters*res.BatchPerGPU*len(sys.GPUs))/res.TotalTime.Seconds())
	fmt.Printf("GPU util %.1f%%  GPU mem %.1f%%  CPU %.1f%%\n",
		res.AvgGPUUtil*100, res.AvgGPUMemUtil*100, res.AvgCPUUtil*100)
	if s := res.Samples.Series(train.SeriesGPUUtil); s != nil {
		fmt.Printf("GPU utilization: |%s|\n", s.Sparkline(60))
	}
}
