// Package data describes the training datasets of the paper's benchmarks
// (Table II): ImageNet, COCO and SQuAD v1.1. Since the real corpora are not
// available (and irrelevant to the measured quantities), each dataset is a
// synthetic generator with the real per-sample byte size, CPU preprocessing
// cost and access pattern — the three properties that affect training-time
// behaviour on the composable system.
package data

import (
	"time"

	"composable/internal/units"
)

// Spec describes a dataset.
type Spec struct {
	Name    string
	Samples int
	// BytesPerSample is the on-disk size of one raw sample (JPEG image,
	// tokenized feature record).
	BytesPerSample units.Bytes
	// ReadsPerSample is how many raw samples one training sample touches
	// (YOLOv5's mosaic augmentation stitches four images).
	ReadsPerSample int
	// DecodePerSample is the CPU core time to decode and augment one
	// training sample (all its reads included).
	DecodePerSample time.Duration
	// RandomAccess marks shuffled access (random-read rates apply).
	RandomAccess bool
	// InputBytesPerSample is the decoded tensor size shipped host→GPU
	// per sample: vision pipelines transfer uint8 HWC images and
	// normalize on the GPU (the standard high-throughput layout), NLP
	// ships int64 token ids.
	InputBytesPerSample units.Bytes
}

// The three corpora used in the paper's evaluation.
var (
	// ImageNet is ILSVRC-2012 train: 1.28 M JPEGs averaging ≈110 KB,
	// decoded and augmented (crop/resize/flip/normalize) on the CPU.
	// Stored as pre-shuffled sharded record files (the usual large-scale
	// layout), so storage sees near-sequential streams. 3×224×224 FP32
	// input tensors.
	ImageNet = Spec{
		Name:                "ImageNet",
		Samples:             1281167,
		BytesPerSample:      110 * units.KB,
		ReadsPerSample:      1,
		DecodePerSample:     1400 * time.Microsecond,
		RandomAccess:        false,
		InputBytesPerSample: units.Bytes(3 * 224 * 224),
	}
	// COCO is the 2017 detection train split: 118 k images ≈160 KB.
	// YOLOv5's mosaic augmentation loads four images per sample and
	// letterboxes to 640×640.
	COCO = Spec{
		Name:                "COCO",
		Samples:             118287,
		BytesPerSample:      160 * units.KB,
		ReadsPerSample:      4,
		DecodePerSample:     4800 * time.Microsecond,
		RandomAccess:        true,
		InputBytesPerSample: units.Bytes(3 * 640 * 640),
	}
	// SQuADv11 fine-tuning features: ≈88 k pre-tokenized records of
	// 384 input ids + masks; negligible decode cost.
	SQuADv11 = Spec{
		Name:                "SQuAD v1.1",
		Samples:             87599,
		BytesPerSample:      units.Bytes(2560),
		ReadsPerSample:      1,
		DecodePerSample:     60 * time.Microsecond,
		RandomAccess:        false,
		InputBytesPerSample: units.Bytes(384 * 8),
	}
)
