package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/train"
)

// The experiment tests are the repository's acceptance gate: they assert
// the *shapes* the paper reports (who wins, by what rough factor, in what
// order), per README.md "Experiments".

func quickSession() *Session { return NewSession(Quick) }

func TestStackManifestCoversTableI(t *testing.T) {
	m := StackManifest()
	if len(m) != 9 {
		t.Fatalf("manifest rows = %d, want 9 (Table I)", len(m))
	}
	wantLayers := []string{"Operating system", "DL Framework", "CUDA", "NCCL"}
	for _, w := range wantLayers {
		found := false
		for _, c := range m {
			if c.Layer == w {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest missing layer %q", w)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the experiment goldens in testdata/")

// TestAllExperimentsRender renders every registry experiment at quick
// scale and compares each report with testdata/<ID>.golden, so a change
// that claims byte-identical output (a paper figure, an S/R table) is
// checked against a stored value. Regenerate with `go test
// ./internal/experiments -run TestAllExperimentsRender -update` after an
// intended change.
//
// The goldens are captured on amd64 and compared on every architecture:
// every product that feeds a sum is rounded (float64(a*b) + c), so no
// architecture fuses it into an FMA, and CI runs them on 386 as well.
func TestAllExperimentsRender(t *testing.T) {
	s := quickSession()
	for _, e := range Registry() {
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(strings.TrimSpace(out)) == 0 {
			t.Fatalf("%s produced empty report", e.ID)
		}
		checkExperimentGolden(t, e.ID, out)
	}
}

func checkExperimentGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", id, path, got, want)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("F11"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("F99"); err == nil {
		t.Fatal("expected error")
	}
	if got := len(All()); got != 12 {
		t.Fatalf("experiments = %d, want 12 (4 tables + 8 figures)", got)
	}
}

// TestFigure11Shape: vision overhead small; NLP overhead large and ordered
// by parameter count; BERT-large ≈ 2x on falconGPUs.
func TestFigure11Shape(t *testing.T) {
	s := quickSession()
	data, err := Figure11Data(s)
	if err != nil {
		t.Fatal(err)
	}
	falcon := func(name string) float64 { return data[name]["falconGPUs"] }
	// Vision ≤ ~8% (paper: <7%).
	for _, v := range []string{"MobileNetV2", "ResNet-50", "YOLOv5-L"} {
		if o := falcon(v); o < -3 || o > 9 {
			t.Errorf("%s falcon overhead = %+.1f%%, want small (<9%%)", v, o)
		}
	}
	// BERT-large ≈ +100% ("almost twice as much time").
	if o := falcon("BERT-L"); o < 60 || o > 130 {
		t.Errorf("BERT-L falcon overhead = %+.1f%%, want ≈100%%", o)
	}
	// Overhead correlates with parameter count (paper §V-C-2).
	if !(falcon("BERT-L") > falcon("BERT") && falcon("BERT") > falcon("ResNet-50")) {
		t.Errorf("overhead not ordered by model size: BERT-L=%+.1f%% BERT=%+.1f%% ResNet=%+.1f%%",
			falcon("BERT-L"), falcon("BERT"), falcon("ResNet-50"))
	}
	// Hybrid also pays the PCIe price for BERT-large.
	if o := data["BERT-L"]["hybridGPUs"]; o < 30 {
		t.Errorf("BERT-L hybrid overhead = %+.1f%%, want substantial", o)
	}
}

// TestFigure12Shape: falcon PCIe traffic ordered by model size;
// BERT-large ≈ 76 GB/s, ≈19x MobileNetV2, ≈7x ResNet-50.
func TestFigure12Shape(t *testing.T) {
	s := quickSession()
	data, err := Figure12Data(s)
	if err != nil {
		t.Fatal(err)
	}
	f := func(name string) float64 { return data[name]["falconGPUs"] }
	if v := f("BERT-L"); v < 55 || v > 95 {
		t.Errorf("BERT-L falcon traffic = %.1f GB/s, want ≈76", v)
	}
	if v := f("MobileNetV2"); v < 2 || v > 9 {
		t.Errorf("MobileNetV2 falcon traffic = %.1f GB/s, want ≈4", v)
	}
	if v := f("ResNet-50"); v < 7 || v > 17 {
		t.Errorf("ResNet-50 falcon traffic = %.1f GB/s, want ≈11", v)
	}
	if r := f("BERT-L") / f("MobileNetV2"); r < 10 || r > 28 {
		t.Errorf("BERT-L/MobileNet traffic ratio = %.1f, want ≈19", r)
	}
	if r := f("BERT-L") / f("ResNet-50"); r < 4.5 || r > 10 {
		t.Errorf("BERT-L/ResNet traffic ratio = %.1f, want ≈7", r)
	}
	// Traffic increases with model size across the board.
	order := []string{"MobileNetV2", "ResNet-50", "YOLOv5-L", "BERT", "BERT-L"}
	for i := 1; i < len(order); i++ {
		if f(order[i]) <= f(order[i-1]) {
			t.Errorf("traffic not increasing: %s (%.1f) <= %s (%.1f)",
				order[i], f(order[i]), order[i-1], f(order[i-1]))
		}
	}
}

// TestFigure15Shape: NVMe accelerates the big checkpointers (BERT, YOLO);
// small vision models barely move; falconNVMe tracks localNVMe closely.
func TestFigure15Shape(t *testing.T) {
	s := quickSession()
	data, err := Figure15Data(s)
	if err != nil {
		t.Fatal(err)
	}
	if v := data["BERT-L"]["localNVMe"]; v > -2 {
		t.Errorf("BERT-L localNVMe change = %+.1f%%, want clearly negative (faster)", v)
	}
	if v := data["YOLOv5-L"]["localNVMe"]; v > -0.5 {
		t.Errorf("YOLOv5-L localNVMe change = %+.1f%%, want negative (faster)", v)
	}
	if v := data["MobileNetV2"]["localNVMe"]; v < -6 || v > 3 {
		t.Errorf("MobileNetV2 localNVMe change = %+.1f%%, want near zero", v)
	}
	// Falcon-attached NVMe ≈ local NVMe (small switching overhead).
	for _, w := range []string{"YOLOv5-L", "BERT", "BERT-L"} {
		gap := data[w]["falconNVMe"] - data[w]["localNVMe"]
		if gap < -3 || gap > 5 {
			t.Errorf("%s falconNVMe vs localNVMe gap = %+.1f pts, want small", w, gap)
		}
	}
}

// TestFigure16Shape: FP16 >50% faster than FP32 everywhere (>70% on
// falcon); DDP beats DP; sharding lifts batch 6→10 and throughput further.
func TestFigure16Shape(t *testing.T) {
	s := quickSession()
	rows, err := Figure16Data(s)
	if err != nil {
		t.Fatal(err)
	}
	get := func(label, cfg string) SoftOptResult {
		for _, r := range rows {
			if r.Label == label && r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing %s/%s", label, cfg)
		return SoftOptResult{}
	}
	for _, cfg := range []string{"localGPUs", "falconGPUs"} {
		fp32 := get("DDP-FP32", cfg).PerSampleMs
		fp16 := get("DDP-FP16", cfg).PerSampleMs
		speedup := fp32/fp16 - 1
		if speedup < 0.5 {
			t.Errorf("%s: FP16 speedup %.0f%%, want >50%%", cfg, speedup*100)
		}
		if cfg == "falconGPUs" && speedup < 0.7 {
			t.Errorf("falcon FP16 speedup %.0f%%, want >70%%", speedup*100)
		}
		dp := get("DP-FP16", cfg).PerSampleMs
		ddp := get("DDP-FP16", cfg).PerSampleMs
		if dp <= ddp {
			t.Errorf("%s: DP (%.1f) should be slower than DDP (%.1f)", cfg, dp, ddp)
		}
		sharded := get("DDP-FP16-sharded(b10)", cfg)
		if sharded.BatchPerGPU != 10 {
			t.Errorf("%s: sharded batch = %d, want 10", cfg, sharded.BatchPerGPU)
		}
		if sharded.PerSampleMs >= ddp {
			t.Errorf("%s: sharding (%.1f ms/sample) should beat plain DDP (%.1f)",
				cfg, sharded.PerSampleMs, ddp)
		}
	}
	// DDP gain over DP is largest on local GPUs (paper: >80% locally).
	dpGainLocal := get("DP-FP32", "localGPUs").PerSampleMs/get("DDP-FP32", "localGPUs").PerSampleMs - 1
	if dpGainLocal < 0.2 {
		t.Errorf("local DDP-vs-DP gain = %.0f%%, want substantial", dpGainLocal*100)
	}
}

// TestFigure10And13Shapes: GPU util high everywhere; CPU vision > NLP;
// memory-access share lower on Falcon configs (iterations stretch).
func TestFigure10And13Shapes(t *testing.T) {
	s := quickSession()
	if _, err := Figure10(s); err != nil {
		t.Fatal(err)
	}
	resLocal, err := s.RunOpts(gpuConfigs()[0], benchmarkByNameT(t, "BERT-L"), fp16DDP())
	if err != nil {
		t.Fatal(err)
	}
	resFalcon, err := s.RunOpts(gpuConfigs()[2], benchmarkByNameT(t, "BERT-L"), fp16DDP())
	if err != nil {
		t.Fatal(err)
	}
	if resLocal.AvgGPUUtil < 0.8 {
		t.Errorf("BERT-L local GPU util = %.0f%%, want >80%%", resLocal.AvgGPUUtil*100)
	}
	if resFalcon.MemAccessFrac >= resLocal.MemAccessFrac {
		t.Errorf("mem-access share should drop on falcon: local %.1f%% falcon %.1f%%",
			resLocal.MemAccessFrac*100, resFalcon.MemAccessFrac*100)
	}
}

func benchmarkByNameT(t *testing.T, name string) dlmodel.Workload {
	t.Helper()
	wl, err := dlmodel.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestExtensionsRender(t *testing.T) {
	s := quickSession()
	for _, e := range Extensions() {
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(strings.TrimSpace(out)) == 0 {
			t.Fatalf("%s produced empty report", e.ID)
		}
		t.Logf("%s: %s\n%s", e.ID, e.Title, out)
	}
}

// TestAblationShapes pins the ablations' directional findings.
func TestAblationShapes(t *testing.T) {
	s := quickSession()
	// A1: fewer buckets expose more communication.
	one, err := s.RunOpts(gpuConfigs()[2], benchmarkByNameT(t, "BERT-L"),
		train.Options{Precision: gpu.FP16, Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := s.RunOpts(gpuConfigs()[2], benchmarkByNameT(t, "BERT-L"),
		train.Options{Precision: gpu.FP16, Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgIter <= eight.AvgIter {
		t.Errorf("1 bucket (%v) should be slower than 8 buckets (%v)", one.AvgIter, eight.AvgIter)
	}
	// A4: single-drawer packing avoids host crossings.
	twoDrawer, err := s.RunOpts(gpuConfigs()[2], benchmarkByNameT(t, "BERT-L"), fp16DDP())
	if err != nil {
		t.Fatal(err)
	}
	single := gpuConfigs()[2]
	single.Name = "falconGPUs-1drawer"
	single.SingleDrawer = true
	oneDrawer, err := s.RunOpts(single, benchmarkByNameT(t, "BERT-L"), fp16DDP())
	if err != nil {
		t.Fatal(err)
	}
	if oneDrawer.AvgIter >= twoDrawer.AvgIter {
		t.Errorf("single drawer (%v) should beat 2x4 layout (%v) for ring traffic",
			oneDrawer.AvgIter, twoDrawer.AvgIter)
	}
}

// TestAdvancedModeIsolation: concurrent tenants on one drawer train as
// fast as solo tenants (the X1 extension's claim).
func TestAdvancedModeIsolation(t *testing.T) {
	out, err := ExtensionAdvancedMode(quickSession())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "+0.0%") {
		t.Errorf("expected ~0%% interference, got:\n%s", out)
	}
}
