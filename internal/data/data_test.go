package data

import (
	"testing"

	"composable/internal/units"
)

func TestDatasetSizes(t *testing.T) {
	// Sample counts match the corpora the paper trained on.
	if ImageNet.Samples != 1281167 {
		t.Errorf("ImageNet samples = %d", ImageNet.Samples)
	}
	if COCO.Samples != 118287 {
		t.Errorf("COCO samples = %d", COCO.Samples)
	}
	if SQuADv11.Samples != 87599 {
		t.Errorf("SQuAD samples = %d", SQuADv11.Samples)
	}
	// ImageNet on disk ≈ 134 GiB at 110 KB/image.
	tb := units.Bytes(ImageNet.Samples) * ImageNet.BytesPerSample
	if tb < 120<<30 || tb > 150<<30 {
		t.Errorf("ImageNet bytes = %v", tb)
	}
}

func TestAccessPatterns(t *testing.T) {
	if COCO.ReadsPerSample != 4 {
		t.Error("YOLOv5 mosaic reads 4 images per sample")
	}
	if !COCO.RandomAccess {
		t.Error("mosaic access is random")
	}
	if ImageNet.RandomAccess {
		t.Error("sharded record files stream near-sequentially")
	}
	if SQuADv11.ReadsPerSample != 1 || SQuADv11.RandomAccess {
		t.Error("SQuAD features stream sequentially")
	}
}

func TestPreprocessingCostOrdering(t *testing.T) {
	// Vision decode ≫ NLP feature loading: the mechanism behind
	// Figure 13's CPU utilization split.
	if ImageNet.DecodePerSample <= 10*SQuADv11.DecodePerSample {
		t.Error("image decode should dwarf tokenized-feature loading")
	}
	if COCO.DecodePerSample <= ImageNet.DecodePerSample {
		t.Error("mosaic (4 decodes + stitch) should cost more than one decode")
	}
}

func TestInputTensorSizes(t *testing.T) {
	if ImageNet.InputBytesPerSample != 3*224*224 {
		t.Errorf("ImageNet input = %v (uint8 HWC expected)", ImageNet.InputBytesPerSample)
	}
	if COCO.InputBytesPerSample != 3*640*640 {
		t.Errorf("COCO input = %v", COCO.InputBytesPerSample)
	}
}
