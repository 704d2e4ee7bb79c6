package cluster_test

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/pcie"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

type FleetOptions = cluster.FleetOptions

var ComposeFleet = cluster.ComposeFleet

func TestComposeFleetBounds(t *testing.T) {
	for _, bad := range []FleetOptions{
		{Hosts: 0, GPUs: 4},
		{Hosts: falcon.MaxHostsAdvanced + 1, GPUs: 4},
		{Hosts: 2, GPUs: 1},
		{Hosts: 2, GPUs: 17},
		{Hosts: 2, GPUs: 4, GPUModel: "H100"},
	} {
		if _, err := ComposeFleet(sim.NewEnv(), bad); err == nil {
			t.Errorf("ComposeFleet(%+v) accepted", bad)
		}
	}
}

func TestComposeFleetInventoryAndPreattach(t *testing.T) {
	env := sim.NewEnv()
	f, err := ComposeFleet(env, FleetOptions{Hosts: 3, GPUs: 12, Preattach: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Hosts) != 3 || len(f.Slots) != 12 {
		t.Fatalf("got %d hosts, %d slots", len(f.Hosts), len(f.Slots))
	}
	sum := f.Chassis.Summary()
	if sum.GPUs != 12 || sum.Attached != 12 || sum.HostLinks != 3 {
		t.Fatalf("chassis summary %+v", sum)
	}
	// Round-robin preattach: slot i belongs to host i%3, and OwnerHost
	// agrees with the chassis control plane.
	for i, slot := range f.Slots {
		if got := f.OwnerHost(slot); got != i%3 {
			t.Errorf("slot %d preattached to host %d, want %d", i, got, i%3)
		}
	}
	// Drawer packing: first eight slots in drawer 0, rest in drawer 1.
	for i, slot := range f.Slots {
		if want := i / falcon.SlotsPerDrawer; slot.Drawer != want {
			t.Errorf("slot %d in drawer %d, want %d", i, slot.Drawer, want)
		}
	}
}

func TestComposeFleetPodBounds(t *testing.T) {
	cases := []struct {
		name string
		opts FleetOptions
	}{
		{"pods without chassis-per-pod", FleetOptions{Pods: 2, Hosts: 1, GPUs: 4}},
		{"chassis-per-pod without pods", FleetOptions{ChassisPerPod: 2, Hosts: 1, GPUs: 4}},
		{"too many pods", FleetOptions{Pods: 33, ChassisPerPod: 1, Hosts: 1, GPUs: 4}},
		{"too many chassis per pod", FleetOptions{Pods: 2, ChassisPerPod: 33, Hosts: 1, GPUs: 4}},
		{"pod hosts hit the fabric-port limit", FleetOptions{Pods: 2, ChassisPerPod: 1, Hosts: falcon.MaxHostsAdvanced, GPUs: 4}},
		{"oversubscription below 1", FleetOptions{Pods: 2, ChassisPerPod: 1, Hosts: 1, GPUs: 4, Oversubscription: 0.5}},
		{"oversubscription above 64", FleetOptions{Pods: 2, ChassisPerPod: 1, Hosts: 1, GPUs: 4, Oversubscription: 65}},
		{"oversubscription on the degenerate shape", FleetOptions{Hosts: 2, GPUs: 4, Oversubscription: 2}},
		{"pod shape still bounds GPUs", FleetOptions{Pods: 2, ChassisPerPod: 1, Hosts: 1, GPUs: 17}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ComposeFleet(sim.NewEnv(), tc.opts); err == nil {
				t.Errorf("ComposeFleet(%+v) accepted", tc.opts)
			}
		})
	}
}

func TestComposeFleetPodInventory(t *testing.T) {
	const (
		pods, cpp, hosts, gpus = 2, 2, 2, 10
		oversub                = 4.0
	)
	env := sim.NewEnv()
	f, err := ComposeFleet(env, FleetOptions{
		Hosts: hosts, GPUs: gpus, Preattach: true,
		Pods: pods, ChassisPerPod: cpp, Oversubscription: oversub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPods() != pods || f.NumChassis() != pods*cpp || f.NumDrawers() != pods*cpp*falcon.NumDrawers {
		t.Fatalf("hierarchy counts: pods %d chassis %d drawers %d", f.NumPods(), f.NumChassis(), f.NumDrawers())
	}
	if len(f.Hosts) != pods*cpp*hosts || len(f.Slots) != pods*cpp*gpus {
		t.Fatalf("got %d hosts, %d slots", len(f.Hosts), len(f.Slots))
	}
	if len(f.PodUplinks) != pods {
		t.Fatalf("got %d pod uplinks, want %d", len(f.PodUplinks), pods)
	}
	// The spine link carries the pod's aggregate uplink bandwidth divided
	// by the oversubscription ratio: 2 drawers × 2 chassis × 400G / 4.
	drawersInUse := (gpus + falcon.SlotsPerDrawer - 1) / falcon.SlotsPerDrawer
	wantCap := units.BytesPerSec(float64(pcie.CDFPHostCable) * float64(drawersInUse*cpp) / oversub)
	for p, id := range f.PodUplinks {
		l := f.Net.Link(id)
		if l.CapAtoB != wantCap || l.CapBtoA != wantCap {
			t.Errorf("pod %d spine link caps %v/%v, want %v", p, l.CapAtoB, l.CapBtoA, wantCap)
		}
	}
	for i, h := range f.Hosts {
		if h.Index != i || h.ChassisIdx != i/hosts || h.Pod != i/(hosts*cpp) {
			t.Errorf("host %d placed at pod %d chassis %d", i, h.Pod, h.ChassisIdx)
		}
	}
	for g, s := range f.Slots {
		ci, li := g/gpus, g%gpus
		if s.Index != g || s.ChassisIdx != ci || s.Pod != ci/cpp {
			t.Errorf("slot %d placed at pod %d chassis %d", g, s.Pod, s.ChassisIdx)
		}
		if want := li / falcon.SlotsPerDrawer; s.Ref.Drawer != want {
			t.Errorf("slot %d in chassis drawer %d, want %d", g, s.Ref.Drawer, want)
		}
		if want := ci*falcon.NumDrawers + s.Ref.Drawer; s.Drawer != want {
			t.Errorf("slot %d global drawer %d, want %d", g, s.Drawer, want)
		}
		// Preattach stripes per chassis over that chassis's own hosts.
		if want := ci*hosts + li%hosts; f.OwnerHost(s) != want {
			t.Errorf("slot %d preattached to host %d, want %d", g, f.OwnerHost(s), want)
		}
	}
	for ci, ch := range f.ChassisList {
		sum := ch.Summary()
		// Every chassis cables its own hosts plus the fabric uplink port.
		if sum.GPUs != gpus || sum.Attached != gpus || sum.HostLinks != hosts+1 {
			t.Errorf("chassis %d summary %+v", ci, sum)
		}
	}
}

func TestFleetCrossChassisAttachLifecycle(t *testing.T) {
	env := sim.NewEnv()
	f, err := ComposeFleet(env, FleetOptions{
		Hosts: 2, GPUs: 4, Pods: 2, ChassisPerPod: 1, Oversubscription: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	slot := f.Slots[4] // first slot of chassis 1 (pod 1)
	local, remote := f.Hosts[2], f.Hosts[0]

	// Cross-pod attach goes over the fabric port but the fleet records the
	// true owner.
	if err := f.AttachSlot(slot, remote); err != nil {
		t.Fatal(err)
	}
	if got := f.OwnerHost(slot); got != remote.Index {
		t.Fatalf("cross-chassis attach: owner %d, want %d", got, remote.Index)
	}
	if sum := f.ChassisList[1].Summary(); sum.Attached != 1 {
		t.Fatalf("chassis 1 attached %d, want 1", sum.Attached)
	}
	// Reassign back to a same-chassis host, then detach.
	if err := f.ReassignSlot(slot, local); err != nil {
		t.Fatal(err)
	}
	if got := f.OwnerHost(slot); got != local.Index {
		t.Fatalf("reassign: owner %d, want %d", got, local.Index)
	}
	if err := f.DetachSlot(slot); err != nil {
		t.Fatal(err)
	}
	if got := f.OwnerHost(slot); got != -1 {
		t.Fatalf("detach: owner %d, want -1", got)
	}
}

func TestFleetJobSystemTrains(t *testing.T) {
	env := sim.NewEnv()
	f, err := ComposeFleet(env, FleetOptions{Hosts: 2, GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	host := f.Hosts[1]
	slots := f.Slots[:2]
	for _, s := range slots {
		if err := f.Chassis.Attach(s.Ref, host.Port); err != nil {
			t.Fatal(err)
		}
	}
	sys := f.JobSystem(nil, host, slots, "fleet-test")
	if len(sys.GPUs) != 2 || len(sys.FalconGPUPortLinks) != 2 {
		t.Fatalf("job system has %d GPUs, %d port links", len(sys.GPUs), len(sys.FalconGPUPortLinks))
	}
	res, err := train.Run(sys, train.Options{
		Workload: dlmodel.ResNet50Workload(), Precision: gpu.FP16,
		Epochs: 1, ItersPerEpoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.FalconPCIeGBps <= 0 {
		t.Fatalf("result %+v", res)
	}
	// Chassis port-traffic monitors see the job's slot traffic.
	var moved units.Bytes
	for _, row := range f.Chassis.PortTraffic() {
		moved += row.Ingress + row.Egress
	}
	if moved <= 0 {
		t.Error("chassis port monitors recorded no traffic")
	}
}
