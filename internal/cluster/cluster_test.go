package cluster

import (
	"strings"
	"testing"

	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/sim"
)

func compose(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := Compose(sim.NewEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTableIIIComposition(t *testing.T) {
	for _, tc := range []struct {
		cfg                Config
		local, falcon      int
		falconStore        bool
		falconPortLinks    int
		hostAdapters       int
		chassisGPUAttached int
	}{
		{LocalGPUsConfig(), 8, 0, false, 0, 0, 0},
		{HybridGPUsConfig(), 4, 4, false, 4, 1, 4},
		{FalconGPUsConfig(), 0, 8, false, 8, 2, 8},
		{LocalNVMeConfig(), 8, 0, false, 0, 0, 0},
		{FalconNVMeConfig(), 8, 0, true, 0, 1, 0},
	} {
		sys := compose(t, tc.cfg)
		if got := len(sys.LocalGPUList()); got != tc.local {
			t.Errorf("%s: local GPUs = %d, want %d", tc.cfg.Name, got, tc.local)
		}
		if got := len(sys.FalconGPUList()); got != tc.falcon {
			t.Errorf("%s: falcon GPUs = %d, want %d", tc.cfg.Name, got, tc.falcon)
		}
		if sys.Store.Falcon != tc.falconStore {
			t.Errorf("%s: store falcon = %v", tc.cfg.Name, sys.Store.Falcon)
		}
		if got := len(sys.FalconGPUPortLinks); got != tc.falconPortLinks {
			t.Errorf("%s: port links = %d, want %d", tc.cfg.Name, got, tc.falconPortLinks)
		}
		if got := len(sys.HostAdapterLinks); got != tc.hostAdapters {
			t.Errorf("%s: host adapters = %d, want %d", tc.cfg.Name, got, tc.hostAdapters)
		}
		// Control plane mirrors the data plane.
		sum := sys.Chassis.Summary()
		if sum.Attached != tc.chassisGPUAttached+boolToInt(tc.falconStore) {
			t.Errorf("%s: chassis attached = %d", tc.cfg.Name, sum.Attached)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestAllGPUsReachMemoryAndEachOther(t *testing.T) {
	for _, cfg := range TableIIIConfigs() {
		sys := compose(t, cfg)
		for _, g := range sys.GPUs {
			if _, err := sys.Net.Route(sys.Mem, g.Node); err != nil {
				t.Errorf("%s: mem cannot reach %s: %v", cfg.Name, g.Name(), err)
			}
			for _, h := range sys.GPUs {
				if g == h {
					continue
				}
				if _, err := sys.Net.Route(g.Node, h.Node); err != nil {
					t.Errorf("%s: %s cannot reach %s: %v", cfg.Name, g.Name(), h.Name(), err)
				}
			}
		}
		if _, err := sys.Net.Route(sys.Store.Node, sys.Mem); err != nil {
			t.Errorf("%s: storage unreachable: %v", cfg.Name, err)
		}
	}
}

func TestLocalGPUsUseNVLink(t *testing.T) {
	sys := compose(t, LocalGPUsConfig())
	gpus := sys.GPUNodes()
	proto, err := sys.Net.PathProtocol(gpus[0], gpus[1])
	if err != nil {
		t.Fatal(err)
	}
	if proto != "NVLink" {
		t.Fatalf("local pair protocol = %q", proto)
	}
	// Every local GPU pair should route over NVLink (directly or via
	// peers), never through the root complex.
	for i := range gpus {
		for j := i + 1; j < len(gpus); j++ {
			p, err := sys.Net.PathProtocol(gpus[i], gpus[j])
			if err != nil {
				t.Fatal(err)
			}
			if p != "NVLink" {
				t.Errorf("pair %d-%d protocol = %q", i, j, p)
			}
		}
	}
}

func TestFalconGPUsPairProtocols(t *testing.T) {
	sys := compose(t, FalconGPUsConfig())
	f := sys.FalconGPUList()
	// Same drawer: through one switch.
	proto, _ := sys.Net.PathProtocol(f[0].Node, f[1].Node)
	if proto != "PCI-e 4.0" {
		t.Errorf("same-drawer protocol = %q", proto)
	}
	// Cross drawer: via both host adapters and the root complex.
	path, err := sys.Net.Route(f[0].Node, f[4].Node)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 4 {
		t.Errorf("cross-drawer path has %d hops, want ≥4 (sw, ha, rc, ha, sw)", len(path))
	}
}

func TestChassisStateMatchesFigure6(t *testing.T) {
	// The paper's Figure 6 topology: host cabled to both drawers, four
	// GPUs per drawer, NVMe in drawer 2.
	sys := compose(t, FalconGPUsConfig())
	ch := sys.Chassis
	if got := len(ch.Attached("H1")); got != 4 {
		t.Errorf("drawer 1 attached = %d", got)
	}
	if got := len(ch.Attached("H2")); got != 4 {
		t.Errorf("drawer 2 attached = %d", got)
	}
	sysN := compose(t, FalconNVMeConfig())
	dev := sysN.Chassis.Device(falcon.SlotRef{Drawer: 1, Slot: 7})
	if dev == nil || dev.Type != falcon.DeviceNVMe {
		t.Errorf("drawer 2 slot 7 = %+v, want NVMe (Figure 6)", dev)
	}
}

// TestComposeAllConfigs composes every configuration TableIIIConfigs
// returns; each gives the job eight GPUs, wherever they sit.
func TestComposeAllConfigs(t *testing.T) {
	cfgs := TableIIIConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("%d configurations, want 5 (Table III)", len(cfgs))
	}
	for _, cfg := range cfgs {
		sys := compose(t, cfg)
		if got := len(sys.GPUs); got != 8 {
			t.Errorf("%s: %d GPUs, want 8", cfg.Name, got)
		}
	}
}

func TestChassisViews(t *testing.T) {
	sys := compose(t, FalconGPUsConfig())
	topo := sys.Chassis.Topology()
	if !strings.Contains(topo, "drawer 0") || !strings.Contains(topo, "V100") {
		t.Fatalf("topology view incomplete:\n%s", topo)
	}
	if len(sys.Chassis.Events()) == 0 {
		t.Fatal("composition should have produced chassis events")
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "none"},
		{Name: "too-many-local", LocalGPUs: 9},
		{Name: "too-many-falcon", FalconGPUs: 9},
		{Name: "bad-storage", LocalGPUs: 8, Storage: StorageKind("tape")},
	} {
		if _, err := Compose(sim.NewEnv(), cfg); err == nil {
			t.Errorf("config %q accepted", cfg.Name)
		}
	}
}

func TestDescriptionWording(t *testing.T) {
	// Table III wording, verbatim where the paper gives it.
	want := map[string]string{
		"localGPUs":  "8 local GPUs and local storage",
		"hybridGPUs": "4 local GPUs, 4 falcon GPUs, and local storage",
		"falconGPUs": "8 falcon-attached GPUs",
		"localNVMe":  "8 local GPUs and local NVMe",
		"falconNVMe": "8 local GPUs and falcon-attached NVMe",
	}
	for _, cfg := range TableIIIConfigs() {
		if got := cfg.Description(); got != want[cfg.Name] {
			t.Errorf("%s description = %q, want %q", cfg.Name, got, want[cfg.Name])
		}
	}
}

func TestNodeKindsWired(t *testing.T) {
	sys := compose(t, FalconGPUsConfig())
	kinds := map[fabric.NodeKind]int{}
	for _, n := range sys.Net.Nodes() {
		kinds[n.Kind]++
	}
	if kinds[fabric.KindSwitch] != 2 {
		t.Errorf("switches = %d, want 2 drawers", kinds[fabric.KindSwitch])
	}
	if kinds[fabric.KindHostAdapter] != 2 {
		t.Errorf("host adapters = %d", kinds[fabric.KindHostAdapter])
	}
	if kinds[fabric.KindGPU] != 8 {
		t.Errorf("GPUs = %d", kinds[fabric.KindGPU])
	}
}

func TestP100FalconOption(t *testing.T) {
	cfg := FalconGPUsConfig()
	cfg.FalconGPUModel = "P100"
	sys := compose(t, cfg)
	for _, g := range sys.FalconGPUList() {
		if g.Spec.Name != "Tesla P100-PCIE-16GB" {
			t.Fatalf("falcon GPU spec = %s", g.Spec.Name)
		}
	}
	bad := FalconGPUsConfig()
	bad.FalconGPUModel = "K80"
	if _, err := Compose(sim.NewEnv(), bad); err == nil {
		t.Fatal("unknown GPU model accepted")
	}
}

func TestChassisPortTrafficWired(t *testing.T) {
	env := sim.NewEnv()
	sys, err := Compose(env, FalconGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Move some data to a falcon GPU, then read the chassis view.
	env.Go("x", func(p *sim.Proc) {
		if err := sys.Net.Transfer(p, sys.Mem, sys.FalconGPUList()[0].Node, 1<<30); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	rows := sys.Chassis.PortTraffic()
	if len(rows) != 8 {
		t.Fatalf("monitored slots = %d, want 8", len(rows))
	}
	var sawTraffic bool
	for _, r := range rows {
		if r.Ingress > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Fatal("no slot reported ingress traffic after H2D transfer")
	}
}
