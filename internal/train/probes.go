package train

import (
	"composable/internal/cluster"
	"composable/internal/obs"
	"composable/internal/sim"
	"composable/internal/units"
)

// Metric series names recorded by every run.
const (
	SeriesGPUUtil    = "gpu_util"
	SeriesGPUMemUtil = "gpu_mem_util"
	SeriesCPUUtil    = "cpu_util"
	SeriesHostMem    = "host_mem_util"
	SeriesFalconGBps = "falcon_pcie_gbps"
)

// telemetry is a run's sampler over the gauges the paper's tooling
// collected — windowed GPU utilization (nvidia-smi), GPU memory, host CPU
// and memory (wandb system metrics) and Falcon port traffic (chassis
// GUI) — registered on a registry of its own. The gauges read the
// system of the run being sampled, so a Launcher can keep a telemetry
// for a later run (start) once its sampler's last tick has fired: the
// registry, the gauges, the sampler and its columns are then reused.
type telemetry struct {
	sys    *cluster.System
	reg    obs.Registry
	smp    obs.Sampler // over reg
	falcon bool        // the Falcon port gauge is registered

	// gpuMarks and cpuMark are the windowed utilization gauges' last
	// busy snapshots; portLast and portT are the Falcon gauge's last
	// traffic totals and sample time.
	gpuMarks []busyMark
	cpuMark  busyMark
	portLast []units.Bytes
	portT    sim.Time
}

// busyMark is a device's busy-time snapshot: the virtual time it was
// taken and the busy time accrued by then.
type busyMark struct{ t, busy sim.Time }

// newTelemetry returns a telemetry with the four host and GPU gauges,
// plus the Falcon port gauge when falcon is set.
func newTelemetry(falcon bool) *telemetry {
	series := 4
	if falcon {
		series++
	}
	// One allocation holds the registry and the sampler: the
	// constructors' results are copied in, not kept.
	t := &telemetry{falcon: falcon}
	t.reg = *obs.NewRegistry(series)
	t.reg.Gauge(SeriesGPUUtil, t.gpuUtil)
	t.reg.Gauge(SeriesGPUMemUtil, t.gpuMemUtil)
	t.reg.Gauge(SeriesCPUUtil, t.cpuUtil)
	t.reg.Gauge(SeriesHostMem, t.hostMemUtil)
	if falcon {
		t.reg.Gauge(SeriesFalconGBps, t.falconGBps)
	}
	t.smp = *obs.NewSampler(&t.reg, obs.DefaultInterval)
	return t
}

// fits reports whether t can sample a run on sys: its sampler has no
// tick left pending and it has the Falcon gauge exactly when sys has
// Falcon port links.
//
//perf:hot
func (t *telemetry) fits(sys *cluster.System) bool {
	return !t.smp.Pending() && t.falcon == (len(sys.FalconGPUPortLinks) > 0)
}

// start resets the gauges' state for a run on sys, starts sampling and
// returns t.
//
//perf:hot
func (t *telemetry) start(sys *cluster.System) *telemetry {
	t.sys = sys
	t.gpuMarks = resetTo(t.gpuMarks, len(sys.GPUs))
	t.cpuMark = busyMark{}
	t.portLast = resetTo(t.portLast, len(sys.FalconGPUPortLinks))
	t.portT = 0
	t.smp.Start(sys.Env)
	return t
}

// resetTo returns s resized to n zero elements, reusing its storage when
// it is large enough.
func resetTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// gpuUtil is the windowed busy fraction averaged across devices.
func (t *telemetry) gpuUtil() float64 {
	gpus := t.sys.GPUs
	sum := 0.0
	for i, g := range gpus {
		m := &t.gpuMarks[i]
		u := g.UtilizationSince(m.t, m.busy)
		m.t, m.busy = g.BusySnapshot()
		sum += u
	}
	return sum / float64(len(gpus))
}

func (t *telemetry) gpuMemUtil() float64 {
	gpus := t.sys.GPUs
	sum := 0.0
	for _, g := range gpus {
		sum += g.MemUtilization()
	}
	return sum / float64(len(gpus))
}

func (t *telemetry) cpuUtil() float64 {
	h := t.sys.Host
	u := h.UtilizationSince(t.cpuMark.t, t.cpuMark.busy)
	t.cpuMark.t, t.cpuMark.busy = h.BusySnapshot()
	return u
}

func (t *telemetry) hostMemUtil() float64 { return t.sys.Host.MemUtilization() }

// falconGBps is the Falcon GPU slot ports' traffic since the last sample.
func (t *telemetry) falconGBps() float64 {
	sys := t.sys
	now := sys.Env.Now()
	dt := (now - t.portT).Seconds()
	var delta units.Bytes
	for i, id := range sys.FalconGPUPortLinks {
		ab, ba := sys.Net.LinkTrafficSnapshot(id)
		cur := ab + ba
		delta += cur - t.portLast[i]
		t.portLast[i] = cur
	}
	t.portT = now
	if dt <= 0 {
		return 0
	}
	// Same wire-overhead accounting as Result.FalconPCIeGBps.
	return float64(delta) * pcieWireOverhead / dt / 1e9
}

// fillAverages copies the gauge means into the result.
func fillAverages(res *Result, smp *obs.Sampler) {
	res.Samples = smp
	res.AvgGPUUtil = smp.Series(SeriesGPUUtil).Mean()
	res.AvgGPUMemUtil = smp.Series(SeriesGPUMemUtil).Mean()
	res.AvgCPUUtil = smp.Series(SeriesCPUUtil).Mean()
	res.AvgHostMemUtil = smp.Series(SeriesHostMem).Mean()
}
