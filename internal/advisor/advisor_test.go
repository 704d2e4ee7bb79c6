package advisor

import (
	"strings"
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
)

func TestRecommendsLocalForBERTLarge(t *testing.T) {
	rec, err := Recommend(dlmodel.BERTLargeWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Config.Name != "localGPUs" {
		t.Fatalf("best = %s, want localGPUs (340M params cannot hide on PCIe)", rec.Best.Config.Name)
	}
	if !strings.Contains(rec.Rationale, "NVLink-local") {
		t.Errorf("rationale should advise keeping GPUs local: %q", rec.Rationale)
	}
	if !strings.Contains(rec.SoftwareAdvice, "ZeRO-2") {
		t.Errorf("software advice should recommend sharding for BERT-large: %q", rec.SoftwareAdvice)
	}
	if out := rec.Report(); !strings.Contains(out, "localGPUs") {
		t.Errorf("report missing winner: %s", out)
	}
}

func TestFlexibilityAdviceForSmallModels(t *testing.T) {
	rec, err := Recommend(dlmodel.MobileNetV2Workload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// MobileNetV2's 7 MB gradients hide anywhere; the advisor should say
	// composition is essentially free.
	if !strings.Contains(rec.Rationale, "flexibility") {
		t.Errorf("rationale should highlight free flexibility: %q", rec.Rationale)
	}
	spread := rec.Ranked[len(rec.Ranked)-1].Result.TotalTime.Seconds() /
		rec.Ranked[0].Result.TotalTime.Seconds()
	if spread > 1.07 {
		t.Errorf("MobileNetV2 spread = %.2f, should be tiny", spread)
	}
}

func TestPredictionMatchesMeasurementDirection(t *testing.T) {
	// The analytic pre-estimate must agree with the simulator about which
	// workloads suffer on the Falcon fabric.
	falcon := cluster.FalconGPUsConfig()
	small, err := PredictOverhead(dlmodel.ResNet50Workload(), falcon)
	if err != nil {
		t.Fatal(err)
	}
	large, err := PredictOverhead(dlmodel.BERTLargeWorkload(), falcon)
	if err != nil {
		t.Fatal(err)
	}
	if small > 0.15 {
		t.Errorf("ResNet-50 predicted overhead = %.0f%%, want small", small*100)
	}
	if large < 0.4 {
		t.Errorf("BERT-L predicted overhead = %.0f%%, want large", large*100)
	}
	local, err := PredictOverhead(dlmodel.BERTLargeWorkload(), cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if local >= large {
		t.Errorf("local prediction (%.2f) should be below falcon (%.2f)", local, large)
	}
}

func TestRankedOrderIsByThroughput(t *testing.T) {
	rec, err := Recommend(dlmodel.BERTBaseWorkload(), Options{ItersPerEpoch: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rec.Ranked); i++ {
		if rec.Ranked[i].ThroughputSPS > rec.Ranked[i-1].ThroughputSPS {
			t.Fatal("ranking not sorted by throughput")
		}
	}
}
