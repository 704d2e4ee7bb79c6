package cluster

import (
	"fmt"
	"time"

	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/hostcpu"
	"composable/internal/pcie"
	"composable/internal/sim"
	"composable/internal/storage"
)

// ComposeShared builds the paper's advanced mode (§III-B-3): up to three
// hosts share one Falcon drawer, each owning a disjoint set of its GPUs.
// All hosts live on one simulation and one fabric, so any cross-tenant
// interference (or its absence — the isolation the chassis promises) is
// measurable by running their jobs concurrently.
//
// Each returned System has its own host CPU complex, root complex, memory,
// and baseline storage; they share the chassis control plane and the
// drawer's PCIe switch. The i-th host is cabled to port H(i+1).
func ComposeShared(env *sim.Env, hosts, gpusPerHost int) ([]*System, *falcon.Chassis, error) {
	if hosts < 1 || hosts > falcon.MaxHostsAdvanced {
		return nil, nil, fmt.Errorf("cluster: advanced mode supports 1-%d hosts, got %d",
			falcon.MaxHostsAdvanced, hosts)
	}
	if gpusPerHost < 1 || hosts*gpusPerHost > falcon.SlotsPerDrawer {
		return nil, nil, fmt.Errorf("cluster: %d hosts x %d GPUs exceeds the drawer's %d slots",
			hosts, gpusPerHost, falcon.SlotsPerDrawer)
	}

	net := fabric.NewNetwork(env)
	net.EndpointOverhead = pcie.EndpointOverhead

	ch := falcon.New("falcon-1")
	ch.Now = func() time.Duration { return env.Now() }
	// One drawer mode, a cable per host, an install and attach per GPU.
	ch.ReserveLog(1 + hosts + 2*hosts*gpusPerHost)
	if err := ch.SetMode(0, falcon.ModeAdvanced); err != nil {
		return nil, nil, err
	}
	sw := net.AddNode("falcon-sw0", fabric.KindSwitch)

	systems := make([]*System, 0, hosts)
	for h := 0; h < hosts; h++ {
		hostName := numbered("host", h+1)
		port := falcon.PortID(h + 1)
		if err := ch.CableHost(port, hostName); err != nil {
			return nil, nil, err
		}

		s := &System{
			Env: env, Net: net, Chassis: ch,
			Cfg:  Config{Name: "shared-" + hostName, FalconGPUs: gpusPerHost, Storage: StorageBaseline},
			Host: hostcpu.New(env, hostcpu.XeonGold6148x2),
		}
		s.RC = net.AddNode("rc-"+hostName, fabric.KindRootComplex)
		s.Mem = net.AddNode("dram-"+hostName, fabric.KindMemory)
		net.ConnectSym(s.RC, s.Mem, memLinkBW, memLinkLatency, "SMP")

		ha := net.AddNode("host-adapter-"+hostName, fabric.KindHostAdapter)
		s.HostAdapterLinks = append(s.HostAdapterLinks,
			net.ConnectSym(s.RC, ha, pcie.EffHostAdapter, pcie.AdapterLatency, pcie.Gen4.String()))
		net.ConnectSym(ha, sw, pcie.CDFPHostCable, pcie.HostLinkLatency, "CDFP")

		for i := 0; i < gpusPerHost; i++ {
			slot := h*gpusPerHost + i
			ref := falcon.SlotRef{Drawer: 0, Slot: slot}
			if err := ch.Install(ref, falcon.DeviceInfo{
				ID:    numbered("v100-s", slot),
				Type:  falcon.DeviceGPU,
				Model: gpu.TeslaV100PCIe.Name, VendorID: "10de", LinkGen: 4, Lanes: 16,
			}); err != nil {
				return nil, nil, err
			}
			if err := ch.Attach(ref, port); err != nil {
				return nil, nil, err
			}
			node := net.AddNode(numbered("fgpu-"+hostName+"-", i), fabric.KindGPU)
			link := net.ConnectSym(node, sw, pcie.EffSwitchP2P, pcie.SlotLatency, pcie.Gen4.String())
			s.FalconGPUPortLinks = append(s.FalconGPUPortLinks, link)
			s.GPUs = append(s.GPUs, gpu.New(env, gpu.TeslaV100PCIe, i, node, false))
		}

		storeNode := net.AddNode("store-"+hostName, fabric.KindNVMe)
		net.ConnectSym(storeNode, s.RC, baselineStoreLinkBW, 5*time.Microsecond, "SATA")
		s.Store = storage.New(env, net, storage.BaselineStore, storeNode, false)
		s.Cache = storage.NewPageCache(s.Host)

		systems = append(systems, s)
	}
	return systems, ch, nil
}
