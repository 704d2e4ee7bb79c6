// Package units defines the physical quantities used throughout the
// composable-system simulator: byte sizes, bandwidths, virtual time and
// compute throughput. Keeping them as distinct named types catches unit
// mix-ups at compile time and gives every quantity a uniform String form.
package units

import (
	"fmt"
	"time"
)

// Bytes is a data size in bytes.
type Bytes int64

// Common byte sizes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// KiB and friends are aliases used where the binary prefix reads better.
const (
	KiB = KB
	MiB = MB
	GiB = GB
	TiB = TB
)

func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// BytesPerSec is a bandwidth. The paper reports bandwidths in GB/s
// (decimal gigabytes, as NVIDIA tools do), so the constructor GBps and the
// String method use 1e9.
type BytesPerSec float64

// GBps converts a decimal-GB/s figure (as used by nvidia-smi, NCCL and the
// paper's Table IV) into a BytesPerSec.
func GBps(v float64) BytesPerSec { return BytesPerSec(v * 1e9) }

// Gbps converts a line rate in gigabits per second (e.g. the Falcon's
// 400 Gb/s CDFP host cables).
func Gbps(v float64) BytesPerSec { return BytesPerSec(v * 1e9 / 8) }

// GB returns the bandwidth in decimal GB/s.
func (r BytesPerSec) GB() float64 { return float64(r) / 1e9 }

func (r BytesPerSec) String() string {
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.2fGB/s", float64(r)/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.2fMB/s", float64(r)/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.2fKB/s", float64(r)/1e3)
	}
	return fmt.Sprintf("%.0fB/s", float64(r))
}

// FLOPs counts floating-point operations.
type FLOPs int64

// Common FLOP scales.
const (
	MFLOP FLOPs = 1e6
	GFLOP FLOPs = 1e9
	TFLOP FLOPs = 1e12
)

func (f FLOPs) String() string {
	switch {
	case f >= TFLOP:
		return fmt.Sprintf("%.2fTFLOP", float64(f)/float64(TFLOP))
	case f >= GFLOP:
		return fmt.Sprintf("%.2fGFLOP", float64(f)/float64(GFLOP))
	case f >= MFLOP:
		return fmt.Sprintf("%.2fMFLOP", float64(f)/float64(MFLOP))
	}
	return fmt.Sprintf("%dFLOP", int64(f))
}

// FLOPSRate is a compute throughput in FLOP/s.
type FLOPSRate float64

// TFLOPS converts a teraFLOP/s figure.
func TFLOPS(v float64) FLOPSRate { return FLOPSRate(v * 1e12) }

func (r FLOPSRate) String() string {
	if r >= 1e12 {
		return fmt.Sprintf("%.2fTFLOPS", float64(r)/1e12)
	}
	return fmt.Sprintf("%.2fGFLOPS", float64(r)/1e9)
}

// ComputeTime returns how long f FLOPs take at rate r.
func (r FLOPSRate) ComputeTime(f FLOPs) time.Duration {
	if r <= 0 {
		return time.Duration(1<<62 - 1)
	}
	sec := float64(f) / float64(r)
	return time.Duration(sec * float64(time.Second))
}
