package fabric

import (
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// Hop is one directed link of a route: the link and whether it is crossed
// A→B. The route oracle in package fabric_test compares paths as hops.
type Hop struct {
	Link    LinkID
	Forward bool
}

// HopPenalty is the per-hop tie-break cost Route adds to link latency.
const HopPenalty = hopPenalty

// DenseRouteLimit is the node count up to which Route caches in a table.
const DenseRouteLimit = denseRouteLimit

// RouteHops returns Route's src→dst path as hops.
func (n *Network) RouteHops(src, dst NodeID) ([]Hop, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return nil, err
	}
	hops := make([]Hop, len(path))
	for i, dl := range path {
		hops[i] = Hop{Link: dl.link.ID, Forward: dl.forward}
	}
	return hops, nil
}

func TestDotExport(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env)
	a := n.AddNode("gpu0", KindGPU)
	b := n.AddNode("sw0", KindSwitch)
	n.Connect(a, b, units.GBps(12), units.GBps(10), time.Microsecond, "PCI-e 4.0")
	out := n.Dot("test")
	for _, want := range []string{"graph fabric", `"gpu0"`, `"sw0"`, "hexagon", "PCI-e 4.0", "12.00GB/s/10.00GB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
}

func TestLinkUtilizationOrdering(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env)
	a := n.AddNode("a", KindGPU)
	b := n.AddNode("b", KindSwitch)
	c := n.AddNode("c", KindGPU)
	n.ConnectSym(a, b, units.GBps(10), 0, "x")
	n.ConnectSym(b, c, units.GBps(10), 0, "x")
	env.Go("t", func(p *sim.Proc) {
		_ = n.Transfer(p, a, b, 5*units.GB) // only link 0
		_ = n.Transfer(p, a, c, units.GB)   // both links
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	rows := n.LinkUtilization()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AtoB != 6*units.GB || rows[1].AtoB != units.GB {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].From != "a" || rows[0].To != "b" {
		t.Fatalf("busiest link = %s--%s", rows[0].From, rows[0].To)
	}
}
