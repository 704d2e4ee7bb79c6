package falcon

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func v100(i int) DeviceInfo {
	return DeviceInfo{ID: fmt.Sprintf("gpu-%d", i), Type: DeviceGPU, Model: "Tesla V100-PCIE", VendorID: "10de", LinkGen: 4, Lanes: 16}
}

func chassisWithHosts(t *testing.T) *Chassis {
	t.Helper()
	c := New("falcon-a")
	for i, h := range []string{"host1", "host2", "host3", "host4"} {
		if err := c.CableHost(fmt.Sprintf("H%d", i+1), h); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestInstallAttachDetachLifecycle(t *testing.T) {
	c := chassisWithHosts(t)
	ref := SlotRef{Drawer: 0, Slot: 0}
	if err := c.Install(ref, v100(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(ref, v100(1)); err == nil {
		t.Fatal("double install allowed")
	}
	if err := c.Attach(ref, "H1"); err != nil {
		t.Fatal(err)
	}
	if got := c.Owner(ref); got != "H1" {
		t.Fatalf("owner = %q", got)
	}
	if err := c.Attach(ref, "H2"); err == nil {
		t.Fatal("double attach allowed")
	}
	if err := c.Remove(ref); err == nil {
		t.Fatal("removed attached device")
	}
	if err := c.Detach(ref); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ref); err != nil {
		t.Fatal(err)
	}
	if c.Device(ref) != nil {
		t.Fatal("device still present after remove")
	}
}

func TestStandardOneHostRejectsSecondHost(t *testing.T) {
	c := chassisWithHosts(t)
	for s := 0; s < 8; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 8; s++ {
		if err := c.Attach(SlotRef{0, s}, "H1"); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	// All 8 to one host is the mode's maximum; a second host must fail.
	if err := c.Detach(SlotRef{0, 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 7}, "H2"); err == nil {
		t.Fatal("standard-1host accepted a second host")
	}
}

func TestStandardTwoHostHalfSplit(t *testing.T) {
	c := chassisWithHosts(t)
	if err := c.SetMode(0, ModeStandardTwoHost); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
	}
	// host1 gets the lower half, host2 the upper half.
	for s := 0; s < 4; s++ {
		if err := c.Attach(SlotRef{0, s}, "H1"); err != nil {
			t.Fatal(err)
		}
	}
	for s := 4; s < 8; s++ {
		if err := c.Attach(SlotRef{0, s}, "H2"); err != nil {
			t.Fatal(err)
		}
	}
	// Crossing the half boundary must fail.
	if err := c.Detach(SlotRef{0, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 3}, "H2"); err == nil {
		t.Fatal("two-host mode allowed a port to cross the drawer half")
	}
}

func TestAdvancedModeThreeHostsAndReassign(t *testing.T) {
	c := chassisWithHosts(t)
	if err := c.SetMode(0, ModeAdvanced); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Arbitrary distribution over three hosts.
	ports := []string{"H1", "H1", "H1", "H2", "H2", "H3", "H3", "H3"}
	for s, p := range ports {
		if err := c.Attach(SlotRef{0, s}, p); err != nil {
			t.Fatalf("slot %d -> %s: %v", s, p, err)
		}
	}
	// A fourth host must be rejected.
	if err := c.Detach(SlotRef{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H4"); err == nil {
		t.Fatal("advanced mode accepted a fourth host")
	}
	if err := c.Attach(SlotRef{0, 0}, "H1"); err != nil {
		t.Fatal(err)
	}
	// Dynamic re-allocation works in advanced mode...
	if err := c.Reassign(SlotRef{0, 0}, "H2"); err != nil {
		t.Fatal(err)
	}
	if got := c.Owner(SlotRef{0, 0}); got != "H2" {
		t.Fatalf("owner after reassign = %q", got)
	}
	// ...but not in standard mode.
	if err := c.SetMode(1, ModeStandardOneHost); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(SlotRef{1, 0}, v100(10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{1, 0}, "H3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Reassign(SlotRef{1, 0}, "H4"); err == nil {
		t.Fatal("reassign allowed outside advanced mode")
	}
}

func TestModeChangeRequiresDetachedDrawer(t *testing.T) {
	c := chassisWithHosts(t)
	if err := c.Install(SlotRef{0, 0}, v100(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMode(0, ModeAdvanced); err == nil {
		t.Fatal("mode change allowed with attached devices")
	}
	if err := c.Detach(SlotRef{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMode(0, ModeAdvanced); err != nil {
		t.Fatal(err)
	}
}

func TestAttachRequiresCabledPort(t *testing.T) {
	c := New("bare")
	if err := c.Install(SlotRef{0, 0}, v100(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H1"); err == nil {
		t.Fatal("attach to uncabled port allowed")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	c := chassisWithHosts(t)
	if err := c.SetMode(1, ModeAdvanced); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
		if err := c.Attach(SlotRef{0, s}, "H1"); err != nil {
			t.Fatal(err)
		}
	}
	nvme := DeviceInfo{ID: "nvme-0", Type: DeviceNVMe, Model: "Intel 4TB", LinkGen: 3, Lanes: 4}
	if err := c.Install(SlotRef{1, 7}, nvme); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{1, 7}, "H3"); err != nil {
		t.Fatal(err)
	}

	data, err := c.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}
	c2 := New("falcon-b")
	if err := c2.ImportConfig(data); err != nil {
		t.Fatal(err)
	}
	if got := c2.Owner(SlotRef{1, 7}); got != "H3" {
		t.Fatalf("imported owner = %q, want H3", got)
	}
	if m := c2.drawers[1].mode; m != ModeAdvanced {
		t.Fatalf("imported mode = %v", m)
	}
	h1 := 0
	for _, ref := range c2.Slots() {
		if c2.Owner(ref) == "H1" {
			h1++
		}
	}
	if got, want := h1, 4; got != want {
		t.Fatalf("H1 devices = %d, want %d", got, want)
	}
	d := c2.Device(SlotRef{1, 7})
	if d == nil || d.Type != DeviceNVMe {
		t.Fatalf("imported device = %+v", d)
	}
}

func TestSummaryAndTopologyView(t *testing.T) {
	c := chassisWithHosts(t)
	for s := 0; s < 3; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Install(SlotRef{1, 0}, DeviceInfo{ID: "nvme-0", Type: DeviceNVMe, Model: "Intel 4TB"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H1"); err != nil {
		t.Fatal(err)
	}
	sum := c.Summary()
	if sum.GPUs != 3 || sum.NVMes != 1 || sum.Attached != 1 || sum.Free != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.HostLinks != 4 {
		t.Fatalf("host links = %d", sum.HostLinks)
	}
	top := c.Topology()
	for _, want := range []string{"drawer 0", "drawer 1", "H1", "host1", "Tesla V100-PCIE"} {
		if !strings.Contains(top, want) {
			t.Fatalf("topology view missing %q:\n%s", want, top)
		}
	}
}

func TestSensorsScaleWithLoadAndThermalAlert(t *testing.T) {
	c := chassisWithHosts(t)
	idle := c.Sensors()
	for s := 0; s < 8; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
		if err := c.Attach(SlotRef{0, s}, "H1"); err != nil {
			t.Fatal(err)
		}
	}
	busy := c.Sensors()
	if busy.DrawerTempC[0] <= idle.DrawerTempC[0] {
		t.Fatal("drawer temperature did not rise with load")
	}
	if busy.FanDutyPct <= idle.FanDutyPct {
		t.Fatal("fan duty did not rise with load")
	}
}

func TestPortHealthView(t *testing.T) {
	c := chassisWithHosts(t)
	hs := c.PortHealth()
	if len(hs) != NumHostPorts {
		t.Fatalf("ports = %d", len(hs))
	}
	for _, h := range hs {
		if !h.LinkUp {
			t.Fatalf("port %s down after cabling", h.Port)
		}
	}
}

// TestAttachInvariantsProperty drives random valid/invalid operations and
// checks the core safety invariants: a device is owned by at most one port,
// ownership implies presence, and per-mode host limits hold.
func TestAttachInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("prop")
		hosts := []string{"h1", "h2", "h3", "h4"}
		for i, h := range hosts {
			if err := c.CableHost(fmt.Sprintf("H%d", i+1), h); err != nil {
				return false
			}
		}
		modes := []Mode{ModeStandardOneHost, ModeStandardTwoHost, ModeAdvanced}
		_ = c.SetMode(0, modes[rng.Intn(3)])
		_ = c.SetMode(1, modes[rng.Intn(3)])
		for op := 0; op < 200; op++ {
			ref := SlotRef{Drawer: rng.Intn(NumDrawers), Slot: rng.Intn(SlotsPerDrawer)}
			port := fmt.Sprintf("H%d", 1+rng.Intn(4))
			switch rng.Intn(5) {
			case 0:
				_ = c.Install(ref, v100(op))
			case 1:
				_ = c.Remove(ref)
			case 2:
				_ = c.Attach(ref, port)
			case 3:
				_ = c.Detach(ref)
			case 4:
				_ = c.Reassign(ref, port)
			}
			// Invariants after every operation.
			for d := 0; d < NumDrawers; d++ {
				hostsInDrawer := map[string]bool{}
				for s := 0; s < SlotsPerDrawer; s++ {
					r := SlotRef{Drawer: d, Slot: s}
					owner := c.Owner(r)
					if owner != "" && c.Device(r) == nil {
						t.Logf("seed %d: slot %v owned but empty", seed, r)
						return false
					}
					if owner != "" {
						p, err := c.Port(owner)
						if err != nil || p.Host == "" {
							t.Logf("seed %d: slot %v owned by bad port %q", seed, r, owner)
							return false
						}
						hostsInDrawer[p.Host] = true
					}
				}
				limit := map[Mode]int{
					ModeStandardOneHost: 1,
					ModeStandardTwoHost: 2,
					ModeAdvanced:        MaxHostsAdvanced,
				}[c.drawers[d].mode]
				if len(hostsInDrawer) > limit {
					t.Logf("seed %d: drawer %d has %d hosts in mode %s", seed, d, len(hostsInDrawer), c.drawers[d].mode)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	c := chassisWithHosts(t)
	if err := c.Install(SlotRef{0, 0}, v100(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H1"); err != nil {
		t.Fatal(err)
	}
	// A mode-constraint rejection is logged as a warning.
	if err := c.Install(SlotRef{0, 1}, v100(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 1}, "H2"); err == nil {
		t.Fatal("second host accepted in standard-1host mode")
	}
	evs := c.Events()
	var attaches, warnings int
	for _, e := range evs {
		if strings.Contains(e.Message, "attached to H1") {
			attaches++
		}
		if e.Severity == SevWarning {
			warnings++
		}
	}
	if attaches != 1 || warnings != 1 {
		t.Fatalf("attaches=%d warnings=%d, events: %+v", attaches, warnings, evs)
	}
}

func TestOneHostTwoConnections(t *testing.T) {
	// §III-B-1: "One host can have two connections to the same drawer.
	// Each connection gives access to four devices."
	c := New("dual")
	if err := c.CableHost("H1", "host1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CableHost("H2", "host1"); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if err := c.Install(SlotRef{0, s}, v100(s)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 4; s++ {
		if err := c.Attach(SlotRef{0, s}, "H1"); err != nil {
			t.Fatalf("lower half via H1: %v", err)
		}
	}
	for s := 4; s < 8; s++ {
		if err := c.Attach(SlotRef{0, s}, "H2"); err != nil {
			t.Fatalf("upper half via H2: %v", err)
		}
	}
	// The same host may not cross connection halves in standard mode.
	if err := c.Detach(SlotRef{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(SlotRef{0, 0}, "H2"); err == nil {
		t.Fatal("connection crossed the drawer half")
	}
}
