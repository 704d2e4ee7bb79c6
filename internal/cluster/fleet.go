package cluster

import (
	"fmt"
	"strconv"
	"time"

	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/hostcpu"
	"composable/internal/pcie"
	"composable/internal/sim"
	"composable/internal/storage"
	"composable/internal/units"
)

// FleetOptions shapes a fleet composition (ComposeFleet).
//
// Two shapes are supported. The degenerate shape (Pods and ChassisPerPod
// both zero) is a single chassis with up to falcon.MaxHostsAdvanced hosts —
// the original one-rack testbed, bit-for-bit unchanged. Setting Pods and
// ChassisPerPod composes a hierarchical fleet instead: Pods pods of
// ChassisPerPod chassis each, every chassis carrying its own Hosts host
// machines and GPUs chassis GPUs, tied together by a spine/leaf fabric
// tier with oversubscribed inter-pod links.
type FleetOptions struct {
	// Hosts is the number of host machines cabled to each chassis. In the
	// degenerate shape 1..falcon.MaxHostsAdvanced (both drawers run in
	// advanced mode so devices can be re-allocated on the fly, §III-B-3);
	// in the pod shape 1..falcon.MaxHostsAdvanced-1, because the chassis
	// fabric port counts as one more host against the drawer sharing limit.
	Hosts int
	// GPUs is the per-chassis GPU inventory, 2..16, packed drawer 0 first.
	GPUs int
	// GPUModel selects the chassis part: "" or "V100" for the Tesla V100
	// PCIe, "P100" for the Tesla P100.
	GPUModel string
	// Preattach assigns GPU i to host i%Hosts at compose time (a static
	// per-host partition; in the pod shape the stripe is per chassis, over
	// that chassis's own hosts). When false every GPU starts detached and
	// the orchestrator attaches on demand.
	Preattach bool

	// Pods is the number of pods in a hierarchical fleet; zero selects the
	// degenerate single-chassis shape.
	Pods int
	// ChassisPerPod is the number of chassis in each pod, each hanging off
	// the pod's leaf switch.
	ChassisPerPod int
	// Oversubscription is the ratio of a pod's aggregate uplink bandwidth
	// to its spine link capacity (≥ 1; zero means 1, i.e. non-blocking).
	// Higher values starve cross-pod traffic, which is what gives the
	// locality-aware policies real distance to score.
	Oversubscription float64
}

// Hierarchical reports whether the options select the pod shape.
func (o FleetOptions) Hierarchical() bool { return o.Pods != 0 || o.ChassisPerPod != 0 }

// FleetHost is one host machine of a fleet: its own CPU complex, memory,
// baseline storage and host adapter, sharing its chassis with its peers.
// Its fabric nodes and links exist from compose on. Its CPU, store and
// page-cache models are created by the first JobSystem that runs a job on
// the host, and kept for the rest of the run, so core accounting and
// cache residency carry across its jobs.
type FleetHost struct {
	Index int
	Name  string
	Port  string // chassis host port (H1..H3)
	// Pod and ChassisIdx locate the host in the hierarchy (both zero in
	// the degenerate shape).
	Pod        int
	ChassisIdx int

	RC, Mem fabric.NodeID
	// AdapterLink is the rc ↔ host-adapter link, the host's bandwidth
	// bottleneck into the chassis.
	AdapterLink fabric.LinkID

	storeNode fabric.NodeID
	cpu       *hostcpu.Host
	store     *storage.Device
	cache     *storage.PageCache
}

// FleetSlot is one chassis GPU slot of a fleet: its fabric node and slot
// link, and the installed device's model once a job has been composed
// onto the slot (see Device). Which host owns it is control-plane state
// (falcon.Chassis.Owner plus, for cross-chassis attaches, the fleet's own
// record); the orchestrator moves ownership at run time.
type FleetSlot struct {
	Index int
	Ref   falcon.SlotRef
	Node  fabric.NodeID
	Link  fabric.LinkID
	// Drawer is the fleet-global drawer index,
	// ChassisIdx*falcon.NumDrawers + Ref.Drawer. In the degenerate shape
	// it equals Ref.Drawer.
	Drawer int
	// Pod and ChassisIdx locate the slot in the hierarchy (both zero in
	// the degenerate shape).
	Pod        int
	ChassisIdx int

	dev *gpu.Device
}

// Device returns the slot's GPU model, or nil while no job has been
// composed onto the slot. The first JobSystem that includes the slot
// creates the model; the fleet keeps it for the rest of the run, so its
// memory use and peak carry across jobs.
func (s *FleetSlot) Device() *gpu.Device { return s.dev }

// fabricPort is the chassis host port reserved as the fabric uplink in the
// pod shape: a GPU attached to it is served to a host in another chassis
// over the spine/leaf tier, with the fleet recording the true owner.
var fabricPort = falcon.PortID(falcon.NumHostPorts)

// FleetSystem is a composed multi-host testbed: hosts cabled to one or
// more Falcon chassis whose GPU inventory can be re-attached between them
// mid-run. It is the hardware substrate of internal/orchestrator.
type FleetSystem struct {
	Env *sim.Env
	Net *fabric.Network
	// Chassis is the first chassis — the only one in the degenerate shape.
	Chassis *falcon.Chassis
	// ChassisList holds every chassis in global index order.
	ChassisList []*falcon.Chassis
	Hosts       []*FleetHost
	Slots       []*FleetSlot
	// PodUplinks[p] is the pod-p leaf ↔ spine link (empty in the
	// degenerate shape); faults degrade it via SetLinkCapacity.
	PodUplinks []fabric.LinkID
	Opts       FleetOptions
	// GPUSpec is the part installed in every GPU slot (Opts.GPUModel).
	GPUSpec gpu.Spec

	// slotHost is the fleet-level ownership record, indexed by slot. It
	// disambiguates the fabric port: the per-chassis control plane only
	// says "attached to the fabric", the fleet says to which host.
	slotHost []int
}

// NumPods returns the pod count (1 for the degenerate shape).
func (f *FleetSystem) NumPods() int {
	if f.Opts.Pods == 0 {
		return 1
	}
	return f.Opts.Pods
}

// NumChassis returns the chassis count.
func (f *FleetSystem) NumChassis() int { return len(f.ChassisList) }

// NumDrawers returns the size of the fleet-global drawer index space.
func (f *FleetSystem) NumDrawers() int { return len(f.ChassisList) * falcon.NumDrawers }

// ChassisFor returns the chassis holding the slot.
func (f *FleetSystem) ChassisFor(s *FleetSlot) *falcon.Chassis { return f.ChassisList[s.ChassisIdx] }

// portFor picks the chassis port an attach of slot to host goes through:
// the host's own port when they share a chassis, the fabric port when the
// attach crosses chassis.
func (f *FleetSystem) portFor(slot *FleetSlot, host *FleetHost) string {
	if host.ChassisIdx == slot.ChassisIdx {
		return host.Port
	}
	return fabricPort
}

// AttachSlot attaches a detached slot to a host through the slot's chassis
// control plane, local port or fabric port as the hierarchy demands.
func (f *FleetSystem) AttachSlot(slot *FleetSlot, host *FleetHost) error {
	if err := f.ChassisFor(slot).Attach(slot.Ref, f.portFor(slot, host)); err != nil {
		return err
	}
	f.slotHost[slot.Index] = host.Index
	return nil
}

// ReassignSlot moves an attached slot to another host without an
// intermediate detach (falcon advanced-mode re-allocation). Cross-chassis
// moves between two remote hosts re-attach on the fabric port, so the
// chassis still emits the recomposition event.
func (f *FleetSystem) ReassignSlot(slot *FleetSlot, host *FleetHost) error {
	if err := f.ChassisFor(slot).Reassign(slot.Ref, f.portFor(slot, host)); err != nil {
		return err
	}
	f.slotHost[slot.Index] = host.Index
	return nil
}

// DetachSlot releases a slot from its host.
func (f *FleetSystem) DetachSlot(slot *FleetSlot) error {
	if err := f.ChassisFor(slot).Detach(slot.Ref); err != nil {
		return err
	}
	f.slotHost[slot.Index] = -1
	return nil
}

const (
	// leafLinkLatency is a drawer-switch ↔ pod-leaf hop (in-rack optics).
	leafLinkLatency = 500 * time.Nanosecond
	// spineLinkLatency is a pod-leaf ↔ spine hop (cross-row runs).
	spineLinkLatency = 1 * time.Microsecond
)

// leafUplinkBW is one drawer-switch uplink into the pod leaf — the same
// 400 Gb/s line rate as the Falcon host cables.
var leafUplinkBW = pcie.CDFPHostCable

// ComposeFleet builds a fleet: host machines (each with its own root
// complex, DRAM, CPU complex, baseline storage and host adapter) cabled to
// Falcon chassis holding opts.GPUs chassis GPUs each. All drawers run in
// advanced mode; each host's adapter is cabled to every drawer switch of
// its chassis, so any GPU can be attached to any host — same-chassis over
// the host port, cross-chassis over the spine/leaf tier — and the control
// plane alone decides ownership.
func ComposeFleet(env *sim.Env, opts FleetOptions) (*FleetSystem, error) {
	if opts.Hierarchical() {
		if opts.Pods < 1 || opts.Pods > 32 {
			return nil, fmt.Errorf("cluster: fleet supports 1-32 pods, got %d", opts.Pods)
		}
		if opts.ChassisPerPod < 1 || opts.ChassisPerPod > 32 {
			return nil, fmt.Errorf("cluster: fleet supports 1-32 chassis per pod, got %d", opts.ChassisPerPod)
		}
		if opts.Hosts < 1 || opts.Hosts > falcon.MaxHostsAdvanced-1 {
			return nil, fmt.Errorf("cluster: pod fleet supports 1-%d hosts per chassis (the fabric port counts against the drawer limit), got %d",
				falcon.MaxHostsAdvanced-1, opts.Hosts)
		}
		if opts.Oversubscription != 0 && (opts.Oversubscription < 1 || opts.Oversubscription > 64) {
			return nil, fmt.Errorf("cluster: fleet oversubscription %g out of range [1,64]", opts.Oversubscription)
		}
	} else {
		if opts.Oversubscription != 0 {
			return nil, fmt.Errorf("cluster: oversubscription requires the pod shape (set Pods and ChassisPerPod)")
		}
		if opts.Hosts < 1 || opts.Hosts > falcon.MaxHostsAdvanced {
			return nil, fmt.Errorf("cluster: fleet supports 1-%d hosts, got %d",
				falcon.MaxHostsAdvanced, opts.Hosts)
		}
	}
	maxGPUs := falcon.NumDrawers * falcon.SlotsPerDrawer
	if opts.GPUs < 2 || opts.GPUs > maxGPUs {
		return nil, fmt.Errorf("cluster: fleet GPU count %d out of range [2,%d]", opts.GPUs, maxGPUs)
	}
	spec := gpu.TeslaV100PCIe
	switch opts.GPUModel {
	case "", "V100":
	case "P100":
		spec = gpu.TeslaP100
	default:
		return nil, fmt.Errorf("cluster: unknown fleet GPU model %q", opts.GPUModel)
	}

	// Size everything from the fleet shape up front: the fabric graph, the
	// fleet's indexes, and one slab each for the host and slot records.
	drawersInUse := (opts.GPUs + falcon.SlotsPerDrawer - 1) / falcon.SlotsPerDrawer
	numChassis, nodes, links := 1, 0, 0
	if opts.Hierarchical() {
		numChassis = opts.Pods * opts.ChassisPerPod
		nodes, links = 1+opts.Pods, opts.Pods+numChassis*drawersInUse
	}
	// Per chassis: its drawer switches; per host an rc, DRAM, adapter and
	// store, linked rc-DRAM, rc-adapter, store-rc and adapter to each
	// switch; per GPU its node and slot link.
	nodes += numChassis * (drawersInUse + 4*opts.Hosts + opts.GPUs)
	links += numChassis * (opts.Hosts*(3+drawersInUse) + opts.GPUs)

	net := fabric.NewNetwork(env)
	net.EndpointOverhead = pcie.EndpointOverhead
	net.Reserve(nodes, links)

	f := &FleetSystem{
		Env: env, Net: net, Opts: opts, GPUSpec: spec,
		ChassisList: make([]*falcon.Chassis, 0, numChassis),
		Hosts:       make([]*FleetHost, numChassis*opts.Hosts),
		Slots:       make([]*FleetSlot, numChassis*opts.GPUs),
		slotHost:    make([]int, numChassis*opts.GPUs),
	}
	hosts := make([]FleetHost, len(f.Hosts))
	for i := range hosts {
		f.Hosts[i] = &hosts[i]
	}
	slots := make([]FleetSlot, len(f.Slots))
	for i := range slots {
		f.Slots[i] = &slots[i]
		f.slotHost[i] = -1
	}

	if !opts.Hierarchical() {
		site := chassisSite{name: "falcon-1", swPrefix: "falcon-sw", leaf: -1}
		if err := f.buildChassis(site); err != nil {
			return nil, err
		}
		return f, nil
	}

	// Pod fabric tier: one spine, one leaf per pod. A pod's spine link
	// carries its whole aggregate uplink bandwidth divided by the
	// oversubscription ratio.
	spine := net.AddNode("spine-sw", fabric.KindSwitch)
	oversub := opts.Oversubscription
	if oversub == 0 {
		oversub = 1
	}
	spineCap := units.BytesPerSec(float64(leafUplinkBW) * float64(drawersInUse*opts.ChassisPerPod) / oversub)
	f.PodUplinks = make([]fabric.LinkID, 0, opts.Pods)
	for p := 0; p < opts.Pods; p++ {
		leaf := net.AddNode("pod"+strconv.Itoa(p+1)+"-leaf", fabric.KindSwitch)
		f.PodUplinks = append(f.PodUplinks, net.ConnectSym(leaf, spine, spineCap, spineLinkLatency, "fabric"))
		for cc := 0; cc < opts.ChassisPerPod; cc++ {
			c := p*opts.ChassisPerPod + cc
			name := numbered("falcon-", c+1)
			site := chassisSite{
				name:     name,
				swPrefix: name + "-sw",
				pod:      p,
				idx:      c,
				hostIdx:  c * opts.Hosts,
				gpuIdx:   c * opts.GPUs,
				leaf:     leaf,
			}
			if err := f.buildChassis(site); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// numbered returns prefix followed by n in decimal, in one allocation.
func numbered(prefix string, n int) string {
	var b [48]byte
	return string(strconv.AppendInt(append(b[:0], prefix...), int64(n), 10))
}

// chassisSite parameterizes one chassis build: its names and its place in
// the hierarchy. leaf < 0 means no pod fabric tier (degenerate shape).
type chassisSite struct {
	name     string
	swPrefix string // drawer d's switch is named swPrefix followed by d
	pod      int
	idx      int // global chassis index
	hostIdx  int // global index of this chassis's first host
	gpuIdx   int // global index of this chassis's first GPU
	leaf     fabric.NodeID
}

// buildChassis composes one chassis and its hosts and GPUs into the fleet.
// The node/link creation sequence is load-bearing: it defines fabric IDs
// and therefore every downstream fingerprint, so the degenerate shape must
// keep the original order exactly.
func (f *FleetSystem) buildChassis(site chassisSite) error {
	env, net, opts := f.Env, f.Net, f.Opts

	ch := falcon.New(site.name)
	ch.Now = func() time.Duration { return env.Now() }
	ch.ReserveLog(fleetChassisLogEntries(opts))
	// Wire the GUI's port-traffic monitor to the slot link counters.
	first := site.gpuIdx
	ch.SetTrafficSource(func(ref falcon.SlotRef) (in, out units.Bytes) {
		return slotTraffic(net, f.Slots[first+ref.Drawer*falcon.SlotsPerDrawer+ref.Slot].Link)
	})
	for d := 0; d < falcon.NumDrawers; d++ {
		if err := ch.SetMode(d, falcon.ModeAdvanced); err != nil {
			return err
		}
	}
	f.ChassisList = append(f.ChassisList, ch)
	if site.idx == 0 {
		f.Chassis = ch
	}

	// Drawer switches for the drawers the inventory occupies.
	drawersInUse := (opts.GPUs + falcon.SlotsPerDrawer - 1) / falcon.SlotsPerDrawer
	switches := make([]fabric.NodeID, drawersInUse)
	for d := range switches {
		switches[d] = net.AddNode(numbered(site.swPrefix, d), fabric.KindSwitch)
	}
	if site.leaf >= 0 {
		for _, sw := range switches {
			net.ConnectSym(sw, site.leaf, leafUplinkBW, leafLinkLatency, "CDFP")
		}
		if err := ch.CableHost(fabricPort, "fabric-"+site.name); err != nil {
			return err
		}
	}

	for h := 0; h < opts.Hosts; h++ {
		g := site.hostIdx + h
		host := f.Hosts[g]
		*host = FleetHost{
			Index: g,
			Name:  numbered("host", g+1),
			Port:  falcon.PortID(h + 1),
			Pod:   site.pod, ChassisIdx: site.idx,
		}
		if err := ch.CableHost(host.Port, host.Name); err != nil {
			return err
		}
		host.RC = net.AddNode("rc-"+host.Name, fabric.KindRootComplex)
		host.Mem = net.AddNode("dram-"+host.Name, fabric.KindMemory)
		net.ConnectSym(host.RC, host.Mem, memLinkBW, memLinkLatency, "SMP")

		ha := net.AddNode("host-adapter-"+host.Name, fabric.KindHostAdapter)
		host.AdapterLink = net.ConnectSym(host.RC, ha, pcie.EffHostAdapter, pcie.AdapterLatency, pcie.Gen4.String())
		for _, sw := range switches {
			net.ConnectSym(ha, sw, pcie.CDFPHostCable, pcie.HostLinkLatency, "CDFP")
		}

		host.storeNode = net.AddNode("store-"+host.Name, fabric.KindNVMe)
		net.ConnectSym(host.storeNode, host.RC, baselineStoreLinkBW, 5*time.Microsecond, "SATA")
	}

	for i := 0; i < opts.GPUs; i++ {
		g := site.gpuIdx + i
		drawer := i / falcon.SlotsPerDrawer
		ref := falcon.SlotRef{Drawer: drawer, Slot: i % falcon.SlotsPerDrawer}
		dev := falcon.DeviceInfo{
			ID:    numbered("fleet-gpu-", g),
			Type:  falcon.DeviceGPU,
			Model: f.GPUSpec.Name, VendorID: "10de", LinkGen: 4, Lanes: 16,
		}
		if err := ch.Install(ref, dev); err != nil {
			return err
		}
		node := net.AddNode(numbered("fgpu", g), fabric.KindGPU)
		link := net.ConnectSym(node, switches[drawer], pcie.EffSwitchP2P, pcie.SlotLatency, pcie.Gen4.String())
		slot := f.Slots[g]
		*slot = FleetSlot{
			Index: g, Ref: ref, Node: node, Link: link,
			Drawer: site.idx*falcon.NumDrawers + drawer,
			Pod:    site.pod, ChassisIdx: site.idx,
		}
		ch.MonitorPort(ref)
		if opts.Preattach {
			host := f.Hosts[site.hostIdx+i%opts.Hosts]
			if err := ch.Attach(ref, host.Port); err != nil {
				return err
			}
			f.slotHost[g] = host.Index
		}
	}
	return nil
}

// fleetChassisLogEntries is what building one fleet chassis logs: its
// drawer modes, the fabric port's cable in the pod shape, its host
// cables, its GPU installs and, with Preattach, their attaches.
func fleetChassisLogEntries(opts FleetOptions) int {
	n := falcon.NumDrawers + opts.Hosts + opts.GPUs
	if opts.Hierarchical() {
		n++
	}
	if opts.Preattach {
		n += opts.GPUs
	}
	return n
}

// OwnerHost returns the index of the host a slot is attached to, or -1
// when the slot is detached. It reads the chassis control plane first, so
// it is always the ground truth an orchestrator's bookkeeping can be
// checked against; only fabric-port attaches consult the fleet's record.
func (f *FleetSystem) OwnerHost(slot *FleetSlot) int {
	port := f.ChassisFor(slot).Owner(slot.Ref)
	if port == "" {
		return -1
	}
	if port == fabricPort && f.Opts.Hierarchical() {
		return f.slotHost[slot.Index]
	}
	for _, h := range f.Hosts {
		if h.ChassisIdx == slot.ChassisIdx && h.Port == port {
			return h.Index
		}
	}
	return -1
}

// JobSystem assembles the per-job view the training engine runs on: the
// owning host's CPU/memory/storage plus the job's GPU slots. It is where a
// fleet's device models come into being: a slot's GPU model, and a host's
// CPU, store and page cache, are created the first time a view includes
// them and reused by every later view. The view shares the fleet's
// simulation and fabric, so concurrent jobs contend for the host adapter,
// CPU cores, storage and — for cross-chassis slots — the spine/leaf tier
// exactly as co-located tenants would. It fills
// sys, a view no running job uses any more (train.Launcher.Release hands
// one back), reusing its slices, and returns it; a nil sys builds a new
// view.
//
//perf:hot
func (f *FleetSystem) JobSystem(sys *System, host *FleetHost, slots []*FleetSlot, name string) *System {
	if sys == nil {
		sys = new(System)
	}
	gpus, ports, adapters := sys.GPUs[:0], sys.FalconGPUPortLinks[:0], sys.HostAdapterLinks[:0]
	if cap(gpus) < len(slots) {
		gpus, ports = make([]*gpu.Device, 0, len(slots)), make([]fabric.LinkID, 0, len(slots))
	}
	for _, s := range slots {
		if s.dev == nil {
			s.dev = gpu.New(f.Env, f.GPUSpec, s.Index, s.Node, false)
		}
		gpus = append(gpus, s.dev)
		ports = append(ports, s.Link)
	}
	if host.cpu == nil {
		host.cpu = hostcpu.New(f.Env, hostcpu.XeonGold6148x2)
		host.store = storage.New(f.Env, f.Net, storage.BaselineStore, host.storeNode, false)
		host.cache = storage.NewPageCache(host.cpu)
	}
	*sys = System{
		Env: f.Env, Net: f.Net, Chassis: f.ChassisList[host.ChassisIdx],
		Cfg:  Config{Name: name, FalconGPUs: len(slots), Storage: StorageBaseline},
		Host: host.cpu,
		RC:   host.RC, Mem: host.Mem,
		Store: host.store, Cache: host.cache,
		GPUs:               gpus,
		FalconGPUPortLinks: ports,
		HostAdapterLinks:   append(adapters, host.AdapterLink),
	}
	return sys
}
