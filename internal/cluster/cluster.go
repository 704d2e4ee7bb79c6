// Package cluster composes hosts and Falcon chassis devices into runnable
// systems: it builds the fabric graph (data plane) that corresponds to a
// chassis allocation (control plane) and instantiates the device models.
//
// The five host configurations of the paper's Table III are provided as
// ready-made Config constructors.
package cluster

import (
	"fmt"
	"time"

	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/hostcpu"
	"composable/internal/nvlink"
	"composable/internal/pcie"
	"composable/internal/sim"
	"composable/internal/storage"
	"composable/internal/units"
)

// StorageKind selects the storage subsystem of a configuration.
type StorageKind string

// Storage options (Table III).
const (
	// StorageBaseline is the hosts' general-purpose "local storage".
	StorageBaseline StorageKind = "local-storage"
	// StorageLocalNVMe is the host-attached 4 TB NVMe.
	StorageLocalNVMe StorageKind = "local-nvme"
	// StorageFalconNVMe is the chassis-attached 4 TB NVMe (drawer 2).
	StorageFalconNVMe StorageKind = "falcon-nvme"
)

// Config describes a system composition.
type Config struct {
	Name       string
	LocalGPUs  int // host-local V100 SXM2 (NVLink cube mesh)
	FalconGPUs int // chassis-attached V100 PCIe, 4 per drawer
	Storage    StorageKind
	// SingleDrawer packs all Falcon GPUs into drawer 0 behind one host
	// connection instead of the paper's 4-per-drawer layout (Figure 6).
	// §III-B discusses the trade: one connection serving eight devices
	// avoids host crossings for peer traffic but halves host bandwidth.
	// Exercised by the A4 ablation.
	SingleDrawer bool
	// FalconGPUModel selects the chassis GPU part: "" or "V100" for the
	// Tesla V100 PCIe, "P100" for the Tesla P100 the chassis also holds
	// (§V-A-1). Exercised by the X2 heterogeneous-accelerator extension.
	FalconGPUModel string
}

// The five host configurations evaluated in the paper (Table III).
func LocalGPUsConfig() Config {
	return Config{Name: "localGPUs", LocalGPUs: 8, Storage: StorageBaseline}
}
func HybridGPUsConfig() Config {
	return Config{Name: "hybridGPUs", LocalGPUs: 4, FalconGPUs: 4, Storage: StorageBaseline}
}
func FalconGPUsConfig() Config {
	return Config{Name: "falconGPUs", FalconGPUs: 8, Storage: StorageBaseline}
}
func LocalNVMeConfig() Config {
	return Config{Name: "localNVMe", LocalGPUs: 8, Storage: StorageLocalNVMe}
}
func FalconNVMeConfig() Config {
	return Config{Name: "falconNVMe", LocalGPUs: 8, Storage: StorageFalconNVMe}
}

// TableIIIConfigs returns all five configurations in paper order.
func TableIIIConfigs() []Config {
	return []Config{
		LocalGPUsConfig(), HybridGPUsConfig(), FalconGPUsConfig(),
		LocalNVMeConfig(), FalconNVMeConfig(),
	}
}

// Description returns the Table III "Host Configuration" wording.
func (c Config) Description() string {
	switch {
	case c.FalconGPUs > 0 && c.LocalGPUs > 0:
		return fmt.Sprintf("%d local GPUs, %d falcon GPUs, and local storage", c.LocalGPUs, c.FalconGPUs)
	case c.FalconGPUs > 0:
		return fmt.Sprintf("%d falcon-attached GPUs", c.FalconGPUs)
	case c.Storage == StorageLocalNVMe:
		return fmt.Sprintf("%d local GPUs and local NVMe", c.LocalGPUs)
	case c.Storage == StorageFalconNVMe:
		return fmt.Sprintf("%d local GPUs and falcon-attached NVMe", c.LocalGPUs)
	default:
		return fmt.Sprintf("%d local GPUs and local storage", c.LocalGPUs)
	}
}

// Host-internal link parameters.
var (
	// memLinkBW is the root complex ↔ DRAM path (six DDR4-2666 channels
	// per socket; far above any PCIe device's demand, as it should be).
	memLinkBW = units.GBps(100)
	// memLinkLatency approximates LLC-miss-to-DRAM plus IIO traversal.
	memLinkLatency = 300 * time.Nanosecond
	// baselineStoreLinkBW is the SATA controller path of the baseline
	// store.
	baselineStoreLinkBW = units.GBps(2.0)
)

// System is a composed, runnable system: fabric, devices and chassis.
type System struct {
	Env  *sim.Env
	Net  *fabric.Network
	Cfg  Config
	Host *hostcpu.Host

	// RC and Mem are the host's root-complex and DRAM fabric nodes.
	RC, Mem fabric.NodeID

	GPUs    []*gpu.Device // locals first, then Falcon-attached
	Store   *storage.Device
	Cache   *storage.PageCache
	Chassis *falcon.Chassis

	// FalconGPUPortLinks are the chassis slot links of attached Falcon
	// GPUs; their ingress/egress counters feed Figure 12.
	FalconGPUPortLinks []fabric.LinkID
	// HostAdapterLinks are the rc ↔ host-adapter links in use.
	HostAdapterLinks []fabric.LinkID
}

// HostName is the composed host's name on the chassis management plane.
const HostName = "host1"

// Compose builds a system for the given configuration.
func Compose(env *sim.Env, cfg Config) (*System, error) {
	if cfg.LocalGPUs < 0 || cfg.LocalGPUs > 8 {
		return nil, fmt.Errorf("cluster: local GPU count %d out of range [0,8]", cfg.LocalGPUs)
	}
	if cfg.FalconGPUs < 0 || cfg.FalconGPUs > 8 {
		return nil, fmt.Errorf("cluster: falcon GPU count %d out of range [0,8]", cfg.FalconGPUs)
	}
	if cfg.LocalGPUs+cfg.FalconGPUs == 0 {
		return nil, fmt.Errorf("cluster: configuration has no GPUs")
	}

	net := fabric.NewNetwork(env)
	net.EndpointOverhead = pcie.EndpointOverhead

	s := &System{Env: env, Net: net, Cfg: cfg, Host: hostcpu.New(env, hostcpu.XeonGold6148x2)}
	s.RC = net.AddNode("rc0", fabric.KindRootComplex)
	s.Mem = net.AddNode("dram0", fabric.KindMemory)
	net.ConnectSym(s.RC, s.Mem, memLinkBW, memLinkLatency, "SMP")

	// Host-local GPUs: PCIe to the root complex plus the NVLink mesh.
	localNodes := make([]fabric.NodeID, cfg.LocalGPUs)
	for i := 0; i < cfg.LocalGPUs; i++ {
		node := net.AddNode(numbered("gpu", i), fabric.KindGPU)
		localNodes[i] = node
		net.ConnectSym(node, s.RC, pcie.EffLocalGPU, pcie.LocalGPULatency, pcie.Gen3.String())
		s.GPUs = append(s.GPUs, gpu.New(env, gpu.TeslaV100SXM2, i, node, true))
	}
	for _, e := range nvlink.CubeMesh() {
		if e.A < cfg.LocalGPUs && e.B < cfg.LocalGPUs {
			net.ConnectSym(localNodes[e.A], localNodes[e.B],
				nvlink.EdgeBandwidth(e.Bricks), nvlink.EdgeLatency, nvlink.Protocol)
		}
	}

	// Falcon chassis: control plane first, then mirror into the fabric.
	s.Chassis = falcon.New("falcon-1")
	s.Chassis.Now = func() time.Duration { return env.Now() }
	if err := s.Chassis.CableHost("H1", HostName); err != nil {
		return nil, err
	}
	if err := s.Chassis.CableHost("H2", HostName); err != nil {
		return nil, err
	}
	drawerPort := [falcon.NumDrawers]string{"H1", "H2"}

	// Drawer switch fabric, built lazily per drawer in use.
	var drawerSwitch [falcon.NumDrawers]fabric.NodeID
	var haveDrawer [falcon.NumDrawers]bool
	ensureDrawer := func(d int) fabric.NodeID {
		if haveDrawer[d] {
			return drawerSwitch[d]
		}
		sw := net.AddNode(numbered("falcon-sw", d), fabric.KindSwitch)
		ha := net.AddNode(numbered("host-adapter", d), fabric.KindHostAdapter)
		s.HostAdapterLinks = append(s.HostAdapterLinks,
			net.ConnectSym(s.RC, ha, pcie.EffHostAdapter, pcie.AdapterLatency, pcie.Gen4.String()))
		net.ConnectSym(ha, sw, pcie.CDFPHostCable, pcie.HostLinkLatency, "CDFP")
		drawerSwitch[d] = sw
		haveDrawer[d] = true
		return sw
	}

	// Falcon GPUs: four per drawer, matching the paper's Figure 6
	// (or all in drawer 0 when SingleDrawer is set).
	perDrawer := 4
	if cfg.SingleDrawer {
		perDrawer = falcon.SlotsPerDrawer
	}
	falconSpec := gpu.TeslaV100PCIe
	switch cfg.FalconGPUModel {
	case "", "V100":
	case "P100":
		falconSpec = gpu.TeslaP100
	default:
		return nil, fmt.Errorf("cluster: unknown falcon GPU model %q", cfg.FalconGPUModel)
	}
	for i := 0; i < cfg.FalconGPUs; i++ {
		drawer := i / perDrawer
		slot := i % perDrawer
		ref := falcon.SlotRef{Drawer: drawer, Slot: slot}
		dev := falcon.DeviceInfo{
			ID:    numbered("gpu-", i),
			Type:  falcon.DeviceGPU,
			Model: falconSpec.Name, VendorID: "10de", LinkGen: 4, Lanes: 16,
		}
		if err := s.Chassis.Install(ref, dev); err != nil {
			return nil, err
		}
		if err := s.Chassis.Attach(ref, drawerPort[drawer]); err != nil {
			return nil, err
		}
		sw := ensureDrawer(drawer)
		idx := cfg.LocalGPUs + i
		node := net.AddNode(numbered("fgpu", i), fabric.KindGPU)
		link := net.ConnectSym(node, sw, pcie.EffSwitchP2P, pcie.SlotLatency, pcie.Gen4.String())
		s.FalconGPUPortLinks = append(s.FalconGPUPortLinks, link)
		s.registerPortMonitor(ref, link)
		s.GPUs = append(s.GPUs, gpu.New(env, falconSpec, idx, node, false))
	}

	// Storage subsystem.
	switch cfg.Storage {
	case StorageBaseline:
		node := net.AddNode("store0", fabric.KindNVMe)
		net.ConnectSym(node, s.RC, baselineStoreLinkBW, 5*time.Microsecond, "SATA")
		s.Store = storage.New(env, net, storage.BaselineStore, node, false)
	case StorageLocalNVMe:
		node := net.AddNode("nvme0", fabric.KindNVMe)
		net.ConnectSym(node, s.RC, pcie.EffNVMe, pcie.NVMeLinkLatency, pcie.Gen3.String())
		s.Store = storage.New(env, net, storage.IntelNVMe4TB, node, false)
	case StorageFalconNVMe:
		// The chassis NVMe sits in drawer 2 (index 1), slot 7 (Fig. 6).
		ref := falcon.SlotRef{Drawer: 1, Slot: 7}
		dev := falcon.DeviceInfo{
			ID: "nvme-falcon", Type: falcon.DeviceNVMe,
			Model: storage.IntelNVMe4TB.Name, VendorID: "8086", LinkGen: 3, Lanes: 4,
		}
		if err := s.Chassis.Install(ref, dev); err != nil {
			return nil, err
		}
		if err := s.Chassis.Attach(ref, drawerPort[1]); err != nil {
			return nil, err
		}
		sw := ensureDrawer(1)
		node := net.AddNode("fnvme0", fabric.KindNVMe)
		link := net.ConnectSym(node, sw, pcie.EffNVMe, pcie.NVMeLinkLatency, pcie.Gen3.String())
		s.registerPortMonitor(ref, link)
		s.Store = storage.New(env, net, storage.IntelNVMe4TB, node, true)
	default:
		return nil, fmt.Errorf("cluster: unknown storage kind %q", cfg.Storage)
	}
	s.Cache = storage.NewPageCache(s.Host)
	return s, nil
}

// registerPortMonitor wires a chassis slot's traffic view to the fabric
// link counters, backing the management GUI's "monitor port traffic"
// feature (§II-B).
func (s *System) registerPortMonitor(ref falcon.SlotRef, link fabric.LinkID) {
	net := s.Net
	s.Chassis.SetTrafficSource(ref, func() (in, out units.Bytes) {
		ab, ba := net.LinkTrafficSnapshot(link)
		// The slot's device is node A of the link; "in" is traffic into
		// the device (B→A), "out" is device egress (A→B).
		return ba, ab
	})
}

// LocalGPUList returns the host-local devices.
func (s *System) LocalGPUList() []*gpu.Device {
	return s.GPUs[:s.Cfg.LocalGPUs]
}

// FalconGPUList returns the chassis-attached devices.
func (s *System) FalconGPUList() []*gpu.Device {
	return s.GPUs[s.Cfg.LocalGPUs:]
}
