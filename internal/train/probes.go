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

// newSampler registers the gauges the paper's tooling collected —
// windowed GPU utilization (nvidia-smi), GPU memory, host CPU and memory
// (wandb system metrics) and Falcon port traffic (chassis GUI) — on a
// per-run registry and starts sampling them.
func newSampler(sys *cluster.System) *obs.Sampler {
	series := 4
	if len(sys.FalconGPUPortLinks) > 0 {
		series++
	}
	reg := obs.NewRegistry(series)

	// GPU utilization: windowed busy fraction averaged across devices.
	type snap struct{ t, busy sim.Time }
	gpuMarks := make([]snap, len(sys.GPUs))
	reg.Gauge(SeriesGPUUtil, func() float64 {
		sum := 0.0
		for i, g := range sys.GPUs {
			u := g.UtilizationSince(gpuMarks[i].t, gpuMarks[i].busy)
			gpuMarks[i].t, gpuMarks[i].busy = g.BusySnapshot()
			sum += u
		}
		return sum / float64(len(sys.GPUs))
	})
	reg.Gauge(SeriesGPUMemUtil, func() float64 {
		sum := 0.0
		for _, g := range sys.GPUs {
			sum += g.MemUtilization()
		}
		return sum / float64(len(sys.GPUs))
	})
	var cpuMark snap
	reg.Gauge(SeriesCPUUtil, func() float64 {
		u := sys.Host.UtilizationSince(cpuMark.t, cpuMark.busy)
		cpuMark.t, cpuMark.busy = sys.Host.BusySnapshot()
		return u
	})
	reg.Gauge(SeriesHostMem, func() float64 { return sys.Host.MemUtilization() })

	if len(sys.FalconGPUPortLinks) > 0 {
		last := make([]units.Bytes, len(sys.FalconGPUPortLinks))
		var lastT sim.Time
		reg.Gauge(SeriesFalconGBps, func() float64 {
			now := sys.Env.Now()
			dt := (now - lastT).Seconds()
			var delta units.Bytes
			for i, id := range sys.FalconGPUPortLinks {
				ab, ba := sys.Net.LinkTrafficSnapshot(id)
				cur := ab + ba
				delta += cur - last[i]
				last[i] = cur
			}
			lastT = now
			if dt <= 0 {
				return 0
			}
			// Same wire-overhead accounting as Result.FalconPCIeGBps.
			return float64(delta) * pcieWireOverhead / dt / 1e9
		})
	}
	smp := obs.NewSampler(reg, obs.DefaultInterval)
	smp.Start(sys.Env)
	return smp
}

// fillAverages copies the gauge means into the result.
func fillAverages(res *Result, smp *obs.Sampler) {
	res.Samples = smp
	res.AvgGPUUtil = smp.Series(SeriesGPUUtil).Mean()
	res.AvgGPUMemUtil = smp.Series(SeriesGPUMemUtil).Mean()
	res.AvgCPUUtil = smp.Series(SeriesCPUUtil).Mean()
	res.AvgHostMemUtil = smp.Series(SeriesHostMem).Mean()
}
