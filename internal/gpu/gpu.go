// Package gpu models NVIDIA data-center GPUs as simulation devices: compute
// throughput by precision, HBM2 capacity with an allocator that reproduces
// out-of-memory behaviour, and busy-time accounting that backs the GPU
// utilization figures.
package gpu

import (
	"fmt"
	"strconv"
	"time"

	"composable/internal/fabric"
	"composable/internal/sim"
	"composable/internal/units"
)

// Precision selects the arithmetic used by a workload.
type Precision int

// Supported precisions.
const (
	FP32 Precision = iota
	FP16           // mixed precision: FP16 tensor-core math with FP32 master weights
)

func (p Precision) String() string {
	if p == FP16 {
		return "FP16"
	}
	return "FP32"
}

// BytesPerElement returns the storage size of one tensor element.
func (p Precision) BytesPerElement() units.Bytes {
	if p == FP16 {
		return 2
	}
	return 4
}

// Spec describes a GPU product.
type Spec struct {
	Name     string
	PeakFP32 units.FLOPSRate   // CUDA-core FP32 peak
	PeakFP16 units.FLOPSRate   // tensor-core mixed-precision peak
	MemBW    units.BytesPerSec // HBM2 bandwidth
	Memory   units.Bytes       // device memory capacity
	NVLinks  int               // NVLink brick count (0 for PCIe cards)
	// Reserved is memory unavailable to workloads: CUDA context, cuDNN
	// workspaces and framework caching allocator overhead.
	Reserved units.Bytes
}

// Peak returns the peak throughput for a precision.
func (s Spec) Peak(p Precision) units.FLOPSRate {
	if p == FP16 {
		return s.PeakFP16
	}
	return s.PeakFP32
}

// Catalog entries for the GPUs in the test bed (paper §II-A, §V-A-1).
var (
	// TeslaV100SXM2 is the host-local part: NVLink-attached, 16 GB HBM2.
	TeslaV100SXM2 = Spec{
		Name:     "Tesla V100-SXM2-16GB",
		PeakFP32: units.TFLOPS(15.7),
		PeakFP16: units.TFLOPS(125),
		MemBW:    units.GBps(900),
		Memory:   16 * units.GB,
		NVLinks:  6,
		Reserved: 5 * units.GB / 2,
	}
	// TeslaV100PCIe is the Falcon-attached part: same silicon on a PCIe
	// board (no NVLink in the chassis; peer traffic uses the switch).
	// Compute peaks are modeled identical to the SXM2 part: the paper
	// attributes the entire Falcon overhead to PCIe switching (§V-C-2),
	// so the reproduction keeps card clocks out of the comparison.
	TeslaV100PCIe = Spec{
		Name:     "Tesla V100-PCIE-16GB",
		PeakFP32: units.TFLOPS(15.7),
		PeakFP16: units.TFLOPS(125),
		MemBW:    units.GBps(900),
		Memory:   16 * units.GB,
		NVLinks:  0,
		Reserved: 5 * units.GB / 2,
	}
	// TeslaP100 also populates the chassis (paper §V-A-1) though the
	// evaluated runs use V100s only.
	TeslaP100 = Spec{
		Name:     "Tesla P100-PCIE-16GB",
		PeakFP32: units.TFLOPS(9.3),
		PeakFP16: units.TFLOPS(18.7), // no tensor cores: 2× FP16 vector
		MemBW:    units.GBps(732),
		Memory:   16 * units.GB,
		NVLinks:  0,
		Reserved: 13 * units.GB / 10,
	}
)

// Device is one GPU instance placed in the fabric.
type Device struct {
	Spec  Spec
	Index int           // global index within the composed system
	Node  fabric.NodeID // the GPU's fabric node
	Local bool          // true: host-local (NVLink); false: Falcon-attached

	env     *sim.Env
	compute sim.Resource
	used    units.Bytes
	peak    units.Bytes
}

// New creates a device bound to a fabric node.
func New(env *sim.Env, spec Spec, index int, node fabric.NodeID, local bool) *Device {
	return &Device{
		Spec: spec, Index: index, Node: node, Local: local,
		env:     env,
		compute: *sim.NewResource(computeName(index), 1),
	}
}

// computeName returns "gpu<index>.compute", built in one allocation.
func computeName(index int) string {
	var b [32]byte
	return string(append(strconv.AppendInt(append(b[:0], "gpu"...), int64(index), 10), ".compute"...))
}

// Name returns a short identifier such as "gpu3(local)".
func (d *Device) Name() string {
	loc := "falcon"
	if d.Local {
		loc = "local"
	}
	return fmt.Sprintf("gpu%d(%s)", d.Index, loc)
}

// ErrOOM is returned when an allocation exceeds device memory; the message
// mirrors the CUDA allocator's.
type ErrOOM struct {
	Device    string
	Requested units.Bytes
	Free      units.Bytes
}

func (e *ErrOOM) Error() string {
	return fmt.Sprintf("gpu: CUDA out of memory on %s: tried to allocate %v (%v free)",
		e.Device, e.Requested, e.Free)
}

// Usable returns the memory available to workloads after the framework
// reservation.
func (d *Device) Usable() units.Bytes { return d.Spec.Memory - d.Spec.Reserved }

// Free returns the currently unallocated workload memory.
func (d *Device) Free() units.Bytes { return d.Usable() - d.used }

// Used returns the current workload allocation.
func (d *Device) Used() units.Bytes { return d.used }

// PeakUsed returns the high-water mark of workload allocations.
func (d *Device) PeakUsed() units.Bytes { return d.peak }

// Alloc reserves n bytes of device memory.
func (d *Device) Alloc(n units.Bytes) error {
	if n < 0 {
		return fmt.Errorf("gpu: negative allocation %d", n)
	}
	if d.used+n > d.Usable() {
		return &ErrOOM{Device: d.Name(), Requested: n, Free: d.Free()}
	}
	d.used += n
	if d.used > d.peak {
		d.peak = d.used
	}
	return nil
}

// Free releases n bytes of device memory.
func (d *Device) FreeMem(n units.Bytes) {
	if n < 0 || n > d.used {
		panic(fmt.Sprintf("gpu: freeing %v with %v in use", n, d.used))
	}
	d.used -= n
}

// MemUtilization returns used/total including the framework reservation,
// matching what nvidia-smi reports as memory in use.
func (d *Device) MemUtilization() float64 {
	return float64(d.Spec.Reserved+d.used) / float64(d.Spec.Memory)
}

// Compute occupies the device's execution engine for d time: the workload
// model has already converted FLOPs and memory traffic into a duration.
//
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (d *Device) Compute(p *sim.Proc, dur time.Duration) {
	d.compute.Hold(p, 1, dur)
}

// ArmCompute is Compute for steppers, with the protocol of
// sim.Resource.ArmHold: call it with the same arguments on every step
// until it returns false, at which point the engine has been released.
//
//perf:hot
func (d *Device) ArmCompute(sp *sim.Proc, op *sim.HoldOp, dur time.Duration) bool {
	return d.compute.ArmHold(sp, op, 1, dur)
}

// MarkBusyFor credits the device with busy time it spent running
// communication kernels (NCCL all-reduce shows up as GPU utilization in
// nvidia-smi even though the training stream is blocked).
func (d *Device) MarkBusyFor(dur time.Duration) { d.compute.AddBusy(d.env, dur) }

// BusySnapshot supports windowed utilization sampling; see
// sim.Resource.UtilizationSince.
func (d *Device) BusySnapshot() (sim.Time, sim.Time) { return d.compute.BusySnapshot(d.env) }

// UtilizationSince returns the busy fraction since a snapshot.
func (d *Device) UtilizationSince(markTime, markBusy sim.Time) float64 {
	return d.compute.UtilizationSince(d.env, markTime, markBusy)
}
