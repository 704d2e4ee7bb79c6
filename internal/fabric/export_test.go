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

// RouteWork returns the route searches run and the heap entries they
// popped over the network's lifetime.
func (n *Network) RouteWork() (searches, pops int) {
	return n.routeSearches, n.routePops
}

// AdjBuilds returns how many times the routing adjacency was built from
// the link list over the network's lifetime.
func (n *Network) AdjBuilds() int { return n.adjBuilds }

// RouteHops returns Route's src→dst path as hops.
func (n *Network) RouteHops(src, dst NodeID) ([]Hop, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return nil, err
	}
	return hopsOf(path), nil
}

// Hops returns the path the flow was started on as hops.
func (f *Flow) Hops() []Hop { return hopsOf(f.path) }

func hopsOf(path []dir) []Hop {
	hops := make([]Hop, len(path))
	for i, d := range path {
		hops[i] = Hop{Link: d.link(), Forward: d.side() == 0}
	}
	return hops
}

// FirstHopBlock is how many directions the route cache's first hop block
// holds.
const FirstHopBlock = firstHopBlock

// Waterfill is the allocator's max-min system flattened to indices, for the
// waterfill oracle in package fabric_test. Constraints are listed in the
// order the allocator scans them, flows in active-set order, and each
// membership list in the order the allocator walks it, so a reference
// solver over this view meets ties exactly as the allocator does.
type Waterfill struct {
	Caps     []float64 // each constraint's capacity, bytes/sec
	ConFlows [][]int   // each constraint's flows, as indices into Rates
	FlowCons [][]int   // each flow's constraints, path order, rate cap last
	Rates    []float64 // each flow's allocated rate, bytes/sec
}

// Waterfill returns the current system and allocation without running a
// pending recompute, so it may be called from inside one (see
// OnRecompute).
func (n *Network) Waterfill() Waterfill {
	w := Waterfill{ConFlows: make([][]int, len(n.cons)), FlowCons: make([][]int, len(n.flows))}
	index := make(map[*constraint]int, len(n.cons))
	for i, st := range n.cons {
		index[st] = i
		w.Caps = append(w.Caps, st.capacity())
		for _, cf := range st.flows {
			w.ConFlows[i] = append(w.ConFlows[i], cf.f.idx)
		}
	}
	for i, f := range n.flows {
		for _, fc := range f.cons {
			w.FlowCons[i] = append(w.FlowCons[i], index[fc.st])
		}
		w.Rates = append(w.Rates, f.rate)
	}
	return w
}

// OnRecompute runs fn after every allocation recompute, after the auditor
// installed at the time of the call.
func (n *Network) OnRecompute(fn func()) {
	prev := n.auditor
	n.auditor = func() {
		if prev != nil {
			prev()
		}
		fn()
	}
}

// SolveWork returns the flows re-solved, the waterfill rounds (winners)
// run and the scans of live constraints made over the network's lifetime.
func (n *Network) SolveWork() (flows, rounds, passes int) {
	return n.solvedFlows, n.solvedRounds, n.scanPasses
}

// Reasons a waterfill tie batch stops early, indexing EarlyStops.
const (
	StopBelow    = stopBelow    // a freeze pushed some share below the level
	StopNewTie   = stopNewTie   // a constraint outside the tie list reached the level
	StopTieMoved = stopTieMoved // the next tie's share left the level
)

// EarlyStops counts, by reason, the waterfill tie batches stopped early
// over the network's lifetime.
func (n *Network) EarlyStops() [3]int { return n.earlyStops }

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
	// The a--b link carries both transfers, b--c only the second.
	ab0, ba0 := n.LinkTrafficSnapshot(0)
	ab1, ba1 := n.LinkTrafficSnapshot(1)
	if ab0 != 6*units.GB || ab1 != units.GB || ba0 != 0 || ba1 != 0 {
		t.Fatalf("link traffic = %v/%v and %v/%v, want 6GB/0 and 1GB/0", ab0, ba0, ab1, ba1)
	}
	if l := n.Link(0); n.nodes[l.A].Name != "a" || n.nodes[l.B].Name != "b" {
		t.Fatalf("busiest link = %s--%s", n.nodes[l.A].Name, n.nodes[l.B].Name)
	}
}
