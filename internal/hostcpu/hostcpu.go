// Package hostcpu models the host server's CPU complex: a pool of cores
// that data-loading workers occupy for preprocessing, plus a host-memory
// accountant. The paper's host has two Xeon Gold 6148 sockets (2 × 20
// cores) and 756 GB of memory.
package hostcpu

import (
	"fmt"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// Spec describes a host CPU complex.
type Spec struct {
	Name    string
	Sockets int
	Cores   int // physical cores per socket
	// PerCoreScale scales preprocessing op costs (1.0 = reference core,
	// a 2.4 GHz Skylake).
	PerCoreScale float64
	Memory       units.Bytes
}

// XeonGold6148x2 is the paper's host CPU configuration.
var XeonGold6148x2 = Spec{
	Name:         "2 x Intel Xeon Gold 6148 @ 2.40GHz",
	Sockets:      2,
	Cores:        20,
	PerCoreScale: 1.0,
	Memory:       756 * units.GB,
}

// Host is a CPU complex instance.
type Host struct {
	Spec Spec

	env   *sim.Env
	cores *sim.Resource
	// memory accounting
	used units.Bytes
	peak units.Bytes
	// baseline is memory permanently in use by OS + frameworks.
	baseline units.Bytes
}

// New creates a host CPU complex.
func New(env *sim.Env, spec Spec) *Host {
	total := spec.Sockets * spec.Cores
	return &Host{
		Spec:     spec,
		env:      env,
		cores:    sim.NewResource("host.cores", total),
		baseline: 24 * units.GB, // OS, drivers, CUDA host-side state
	}
}

// TotalCores returns the physical core count.
func (h *Host) TotalCores() int { return h.Spec.Sockets * h.Spec.Cores }

// RunOnCore occupies one core for the scaled duration of op.
func (h *Host) RunOnCore(p *sim.Proc, d time.Duration) {
	h.RunOnCores(p, 1, d)
}

// RunOnCores occupies n cores for the scaled duration each — the shape of
// a data-loader worker pool burning through a batch's preprocessing.
// n is clamped to the core count.
func (h *Host) RunOnCores(p *sim.Proc, n int, d time.Duration) {
	var op sim.HoldOp
	for h.ArmRunOnCores(p, &op, n, d) {
		p.Park()
	}
}

// ArmRunOnCore is RunOnCore for steppers; see ArmRunOnCores.
//
//perf:hot
func (h *Host) ArmRunOnCore(sp *sim.Proc, op *sim.HoldOp, d time.Duration) bool {
	return h.ArmRunOnCores(sp, op, 1, d)
}

// ArmRunOnCores is RunOnCores for steppers, with the protocol of
// sim.Resource.ArmHold: call it with the same arguments on every step
// until it returns false, at which point the cores have been held and
// released.
//
//perf:hot
func (h *Host) ArmRunOnCores(sp *sim.Proc, op *sim.HoldOp, n int, d time.Duration) bool {
	if n < 1 {
		n = 1
	}
	if max := h.TotalCores(); n > max {
		n = max
	}
	return h.cores.ArmHold(sp, op, n, time.Duration(float64(d)/h.Spec.PerCoreScale))
}

// CPUUtilization returns the lifetime average core occupancy.
func (h *Host) CPUUtilization() float64 { return h.cores.Utilization(h.env) }

// BusySnapshot supports windowed utilization sampling.
func (h *Host) BusySnapshot() (sim.Time, sim.Time) { return h.cores.BusySnapshot(h.env) }

// UtilizationSince returns core occupancy since a snapshot.
func (h *Host) UtilizationSince(markTime, markBusy sim.Time) float64 {
	return h.cores.UtilizationSince(h.env, markTime, markBusy)
}

// AllocMem reserves host memory (page cache, pinned staging buffers,
// process heaps).
func (h *Host) AllocMem(n units.Bytes) error {
	if n < 0 {
		return fmt.Errorf("hostcpu: negative allocation")
	}
	if h.baseline+h.used+n > h.Spec.Memory {
		return fmt.Errorf("hostcpu: host out of memory: %v requested, %v free",
			n, h.Spec.Memory-h.baseline-h.used)
	}
	h.used += n
	if h.used > h.peak {
		h.peak = h.used
	}
	return nil
}

// FreeMem releases host memory.
func (h *Host) FreeMem(n units.Bytes) {
	if n < 0 || n > h.used {
		panic("hostcpu: bad free")
	}
	h.used -= n
}

// MemUtilization returns (baseline+used)/total, as `free` would show.
func (h *Host) MemUtilization() float64 {
	return float64(h.baseline+h.used) / float64(h.Spec.Memory)
}

// UsedMem returns current workload memory including the OS baseline.
func (h *Host) UsedMem() units.Bytes { return h.baseline + h.used }

// PeakMem returns the high-water mark excluding baseline.
func (h *Host) PeakMem() units.Bytes { return h.peak }
