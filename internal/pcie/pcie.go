// Package pcie models PCI Express signalling: per-generation lane rates,
// encoding overhead, and the effective data-path bandwidths measured on the
// composable test bed. The effective numbers are calibrated against the
// paper's Table IV so that the simulated p2pBandwidthLatencyTest reproduces
// the published measurements.
package pcie

import (
	"fmt"
	"time"

	"composable/internal/units"
)

// Gen is a PCIe generation.
type Gen int

// PCIe generations.
const (
	Gen1 Gen = 1
	Gen2 Gen = 2
	Gen3 Gen = 3
	Gen4 Gen = 4
	Gen5 Gen = 5
)

// genNames are the protocol labels of the known generations, so links
// labelled by generation share one string instead of formatting their own.
var genNames = [...]string{Gen1: "PCI-e 1.0", Gen2: "PCI-e 2.0", Gen3: "PCI-e 3.0", Gen4: "PCI-e 4.0", Gen5: "PCI-e 5.0"}

func (g Gen) String() string {
	if g >= Gen1 && g <= Gen5 {
		return genNames[g]
	}
	return fmt.Sprintf("PCI-e %d.0", int(g))
}

// laneGTs returns the per-lane transfer rate in GT/s.
func (g Gen) laneGTs() float64 {
	switch g {
	case Gen1:
		return 2.5
	case Gen2:
		return 5
	case Gen3:
		return 8
	case Gen4:
		return 16
	case Gen5:
		return 32
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", int(g)))
	}
}

// encodingEfficiency is the line-coding efficiency: 8b/10b for Gen1/2,
// 128b/130b from Gen3 on.
func (g Gen) encodingEfficiency() float64 {
	if g <= Gen2 {
		return 8.0 / 10.0
	}
	return 128.0 / 130.0
}

// RawBandwidth returns the per-direction line bandwidth of a link with the
// given lane count after line coding (e.g. Gen4 x16 ≈ 31.5 GB/s).
func RawBandwidth(g Gen, lanes int) units.BytesPerSec {
	return units.GBps(g.laneGTs() * float64(lanes) * g.encodingEfficiency() / 8)
}

// Calibrated effective data-path bandwidths (per direction). These are the
// only tuned constants in the PCIe model; each is pinned to a measurement in
// the paper's Table IV. Effective rates are well below raw line rate because
// of TLP headers, flow-control credits, read-completion turnaround and the
// DMA engines' achievable request rates — the same reasons the paper's
// measured numbers are far below 31.5 GB/s.
var (
	// EffSwitchP2P is GPU↔GPU through one Falcon drawer switch
	// (Gen4 x16 end to end). Table IV: F-F bidirectional = 24.47 GB/s,
	// i.e. 12.235 GB/s per direction.
	EffSwitchP2P = units.GBps(12.235)

	// EffHostAdapter is the Falcon host adapter as seen from the host
	// root complex (the adapter is Gen4 x16 but sits in a Gen3 x16
	// Skylake host slot, and root-complex P2P forwarding is the
	// bottleneck). Table IV: F-L bidirectional = 19.64 GB/s, i.e.
	// 9.82 GB/s per direction.
	EffHostAdapter = units.GBps(9.82)

	// EffLocalGPU is a host-local GPU's PCIe path to the root complex
	// (Gen3 x16): the other half of the F-L path, set equal to the F-L
	// bottleneck so neither hop hides the other.
	EffLocalGPU = units.GBps(9.82)

	// EffNVMe is an NVMe x4 device interface (Gen3 x4 ≈ 3.9 GB/s raw);
	// the media, not the link, bottlenecks reads in practice.
	EffNVMe = units.GBps(3.6)
)

// Per-hop traversal latencies, calibrated so the simulated p2p write
// latencies reproduce Table IV: F-F = 2.08 µs, F-L = 2.66 µs (with the
// 1.3 µs endpoint/DMA overhead accounted once per transfer by the fabric).
const (
	// SlotLatency is device ↔ drawer-switch traversal.
	SlotLatency = 390 * time.Nanosecond
	// HostLinkLatency is drawer-switch ↔ host-adapter over the CDFP cable.
	HostLinkLatency = 150 * time.Nanosecond
	// AdapterLatency is host-adapter ↔ root-complex traversal.
	AdapterLatency = 120 * time.Nanosecond
	// LocalGPULatency is a local GPU ↔ root-complex traversal (the local
	// GPUs sit behind on-board PCIe switches, hence the longer hop).
	LocalGPULatency = 700 * time.Nanosecond
	// NVMeLinkLatency is an NVMe device ↔ upstream port traversal.
	NVMeLinkLatency = 300 * time.Nanosecond
	// EndpointOverhead is the once-per-transfer DMA/driver setup cost;
	// it dominates small-message latency. Table IV: L-L = 1.85 µs with a
	// 0.55 µs NVLink hop.
	EndpointOverhead = 1300 * time.Nanosecond
)

// CDFPHostCable is the Falcon 4016's 400 Gb/s host cable line rate
// (the physical medium between host adapter and drawer; the adapter's
// PCIe slot, not this cable, is the practical bottleneck).
var CDFPHostCable = units.Gbps(400)
