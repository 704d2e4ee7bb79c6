// Benchmarks regenerating the paper's evaluation artifacts: one testing.B
// benchmark per table and figure (README.md "Experiments"). Each benchmark runs the
// corresponding experiment end to end and reports the headline quantities
// as custom metrics, so `go test -bench . -benchmem` doubles as the
// reproduction harness:
//
//	go test -bench BenchmarkFig11 -benchtime 1x
//
// The wall-clock cost of a benchmark iteration is simulator execution time,
// not simulated training time; shapes (who wins, by what factor) are scale
// independent.
package composable_test

import (
	"context"
	"runtime"
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/experiments"
	"composable/internal/gpu"
	"composable/internal/microbench"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

func session() *experiments.Session {
	return experiments.NewSession(experiments.Quick)
}

// BenchmarkTable1_Stack regenerates Table I (software stack manifest).
func BenchmarkTable1_Stack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.StackManifest()) == 0 {
			b.Fatal("empty stack manifest")
		}
	}
}

// BenchmarkTable2_Models regenerates Table II (benchmark characteristics)
// by building all five model graphs and deriving their parameters/depths.
func BenchmarkTable2_Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := dlmodel.TableII()
		if len(rows) != 5 {
			b.Fatal("expected 5 benchmarks")
		}
	}
	rows := dlmodel.TableII()
	b.ReportMetric(float64(rows[4].Params)/1e6, "BERT-L-Mparams")
}

// BenchmarkTable3_Configs regenerates Table III by composing all five host
// configurations.
func BenchmarkTable3_Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range cluster.TableIIIConfigs() {
			sys, err := cluster.Compose(sim.NewEnv(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(sys.GPUs) == 0 {
				b.Fatal("no GPUs composed")
			}
		}
	}
}

// BenchmarkTable4_P2P regenerates Table IV (GPU-GPU bandwidth/latency).
func BenchmarkTable4_P2P(b *testing.B) {
	var rows []float64
	for i := 0; i < b.N; i++ {
		res, err := microbench.TableIV(units.GB)
		if err != nil {
			b.Fatal(err)
		}
		rows = []float64{res[0].BidirBandwidth.GB(), res[1].BidirBandwidth.GB(), res[2].BidirBandwidth.GB()}
	}
	b.ReportMetric(rows[0], "L-L-GBps")
	b.ReportMetric(rows[1], "F-L-GBps")
	b.ReportMetric(rows[2], "F-F-GBps")
}

// BenchmarkFig9_UtilPatterns regenerates the GPU-utilization pattern panels.
func BenchmarkFig9_UtilPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(session()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_GPUMetrics regenerates the per-configuration GPU metrics.
func BenchmarkFig10_GPUMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(session()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_SwitchingOverhead regenerates the PCIe-switching overhead
// chart and reports the headline number: BERT-large's slowdown on
// Falcon-attached GPUs (paper: ≈ +100%).
func BenchmarkFig11_SwitchingOverhead(b *testing.B) {
	var bertL float64
	for i := 0; i < b.N; i++ {
		data, err := experiments.Figure11Data(session())
		if err != nil {
			b.Fatal(err)
		}
		bertL = data["BERT-L"]["falconGPUs"]
	}
	b.ReportMetric(bertL, "BERT-L-falcon-%slower")
}

// BenchmarkFig12_PCIeTraffic regenerates the Falcon port-traffic chart and
// reports BERT-large's rate (paper: 76.43 GB/s).
func BenchmarkFig12_PCIeTraffic(b *testing.B) {
	var bertL float64
	for i := 0; i < b.N; i++ {
		data, err := experiments.Figure12Data(session())
		if err != nil {
			b.Fatal(err)
		}
		bertL = data["BERT-L"]["falconGPUs"]
	}
	b.ReportMetric(bertL, "BERT-L-GBps")
}

// BenchmarkFig13_CPUUtil regenerates the CPU-utilization chart.
func BenchmarkFig13_CPUUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(session()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14_SysMem regenerates the system-memory chart.
func BenchmarkFig14_SysMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(session()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15_Storage regenerates the storage-configuration chart and
// reports BERT-large's NVMe gain.
func BenchmarkFig15_Storage(b *testing.B) {
	var bertL float64
	for i := 0; i < b.N; i++ {
		data, err := experiments.Figure15Data(session())
		if err != nil {
			b.Fatal(err)
		}
		bertL = data["BERT-L"]["localNVMe"]
	}
	b.ReportMetric(bertL, "BERT-L-localNVMe-%change")
}

// BenchmarkFig16_SoftOpt regenerates the software-optimization study and
// reports the FP16-vs-FP32 speedup on Falcon GPUs (paper: >70%).
func BenchmarkFig16_SoftOpt(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure16Data(session())
		if err != nil {
			b.Fatal(err)
		}
		var fp32, fp16 float64
		for _, r := range rows {
			if r.Config == "falconGPUs" {
				switch r.Label {
				case "DDP-FP32":
					fp32 = r.PerSampleMs
				case "DDP-FP16":
					fp16 = r.PerSampleMs
				}
			}
		}
		speedup = (fp32/fp16 - 1) * 100
	}
	b.ReportMetric(speedup, "falcon-FP16-%speedup")
}

// BenchmarkTrainIteration measures raw simulator throughput: how fast the
// engine simulates one ResNet-50 DDP iteration on eight GPUs (a simulator
// performance benchmark, not a paper artifact).
func BenchmarkTrainIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := cluster.Compose(sim.NewEnv(), cluster.LocalGPUsConfig())
		if err != nil {
			b.Fatal(err)
		}
		_, err = train.Run(sys, trainOptsQuick())
		if err != nil {
			b.Fatal(err)
		}
	}
}

func trainOptsQuick() train.Options {
	return train.Options{
		Workload:      dlmodel.ResNet50Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 8,
	}
}

// Ablation/extension benchmarks (A1–A4, X1–X2): run the studies beyond the
// paper's figures; see README.md "Beyond the paper".
func BenchmarkAblationsAndExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := session()
		for _, e := range experiments.Extensions() {
			if _, err := e.Run(s); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// benchRunAll regenerates the full suite (tables, figures, ablations and
// extensions) on a fresh session per iteration at the given worker-pool
// width, so the Sequential/Parallel pair below measures the runner's
// speedup end to end:
//
//	go test -bench 'BenchmarkRunAll' -benchtime 3x
func benchRunAll(b *testing.B, parallelism int) {
	b.Helper()
	var runs int
	for i := 0; i < b.N; i++ {
		s := session()
		reports, err := experiments.NewRunner(s, nil).RunAll(context.Background(), parallelism)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
		runs = s.Stats().TrainRuns
	}
	b.ReportMetric(float64(runs), "train-runs")
}

// BenchmarkRunAllSequential is the one-worker baseline.
func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel runs the same suite on a pool at least four
// wide; its ns/op against the sequential baseline is the runner's speedup,
// and the identical train-runs metric shows deduplication held under
// concurrency.
func BenchmarkRunAllParallel(b *testing.B) {
	parallelism := runtime.GOMAXPROCS(0)
	if parallelism < 4 {
		parallelism = 4
	}
	benchRunAll(b, parallelism)
}
