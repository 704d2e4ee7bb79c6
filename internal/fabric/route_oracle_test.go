// The route oracle: Route is diffed hop by hop against the linear-scan
// Dijkstra that defined the fabric's routes before the heap search
// replaced it. Every optimization of the search must leave these diffs
// empty, on the composed systems the simulator runs and on random graphs
// built to stress tie-breaking.
package fabric_test

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/perfbench"
	"composable/internal/scengen"
	"composable/internal/sim"
	"composable/internal/units"
)

// refGraph is the routing view of a network, rebuilt from its exported
// links. Out-directions are appended in link creation order, the order the
// network indexes them in, so equal-cost ties meet the same candidates in
// the same order.
type refGraph struct {
	out    [][]fabric.Hop
	degree []int
	links  []*fabric.Link
}

func newRefGraph(net *fabric.Network) *refGraph {
	nn := len(net.Nodes())
	g := &refGraph{out: make([][]fabric.Hop, nn), degree: make([]int, nn), links: net.Links()}
	for _, l := range g.links {
		if l.CapAtoB > 0 {
			g.out[l.A] = append(g.out[l.A], fabric.Hop{Link: l.ID, Forward: true})
		}
		if l.CapBtoA > 0 {
			g.out[l.B] = append(g.out[l.B], fabric.Hop{Link: l.ID, Forward: false})
		}
		g.degree[l.A]++
		g.degree[l.B]++
	}
	return g
}

func (g *refGraph) from(h fabric.Hop) int {
	if h.Forward {
		return int(g.links[h.Link].A)
	}
	return int(g.links[h.Link].B)
}

func (g *refGraph) to(h fabric.Hop) int {
	if h.Forward {
		return int(g.links[h.Link].B)
	}
	return int(g.links[h.Link].A)
}

// search is the reference: the linear-scan Dijkstra with a full reset of
// its scratch on every call, an O(V) extract-min that takes the lowest
// node index among equal distances, and strict-< relaxation. It stops once
// stop is settled. With stop < 0 it settles everything reachable; that
// leaves each node's prev as a search stopping at the node would, because
// a node's prev never changes after it settles.
func (g *refGraph) search(src, stop int) (prev []fabric.Hop, reached []bool) {
	nn := len(g.out)
	dist := make([]int64, nn)
	prev = make([]fabric.Hop, nn)
	reached = make([]bool, nn)
	visited := make([]bool, nn)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	for {
		best, bestD := -1, int64(math.MaxInt64)
		for i, d := range dist {
			if !visited[i] && d < bestD {
				best, bestD = i, d
			}
		}
		if best == -1 || best == stop {
			break
		}
		visited[best] = true
		for _, h := range g.out[best] {
			cost := int64(g.links[h.Link].Latency) + int64(fabric.HopPenalty)
			if nd := dist[best] + cost; nd < dist[g.to(h)] {
				dist[g.to(h)], prev[g.to(h)], reached[g.to(h)] = nd, h, true
			}
		}
	}
	return prev, reached
}

// path walks prev back from dst; nil means dst is unreachable.
func (g *refGraph) path(prev []fabric.Hop, reached []bool, src, dst int) []fabric.Hop {
	if !reached[dst] {
		return nil
	}
	var p []fabric.Hop
	for at := dst; at != src; at = g.from(prev[at]) {
		p = append(p, prev[at])
	}
	slices.Reverse(p)
	return p
}

// refPerPairLimit is the node count up to which checkPairs runs the
// reference once per pair; past it, one full reference tree per source
// keeps the O(V²) reference affordable.
const refPerPairLimit = 256

// checkPairs diffs Route against the reference for every src in srcs and
// every other dst in dsts. Up to refPerPairLimit nodes the reference runs
// once per pair, exactly as the fabric once did; beyond it one full
// reference tree per source serves all of that source's destinations.
func checkPairs(t *testing.T, net *fabric.Network, srcs, dsts []int) {
	t.Helper()
	g := newRefGraph(net)
	perPair := len(g.out) <= refPerPairLimit
	for _, src := range srcs {
		var prev []fabric.Hop
		var reached []bool
		if !perPair {
			prev, reached = g.search(src, -1)
		}
		for _, dst := range dsts {
			if dst == src {
				continue
			}
			if perPair {
				prev, reached = g.search(src, dst)
			}
			want := g.path(prev, reached, src, dst)
			got, err := net.RouteHops(fabric.NodeID(src), fabric.NodeID(dst))
			switch {
			case want == nil && err == nil:
				t.Fatalf("route %d→%d: got %v, reference finds no path", src, dst, got)
			case want != nil && err != nil:
				t.Fatalf("route %d→%d: %v, reference finds %v", src, dst, err, want)
			}
			for i := 0; i < len(want) || i < len(got); i++ {
				if i >= len(want) || i >= len(got) || got[i] != want[i] {
					t.Fatalf("route %d→%d differs from hop %d:\n got  %v\n want %v", src, dst, i, got, want)
				}
			}
		}
	}
}

func allNodes(net *fabric.Network) []int {
	ids := make([]int, len(net.Nodes()))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func checkAllPairs(t *testing.T, net *fabric.Network) {
	t.Helper()
	ids := allNodes(net)
	checkPairs(t, net, ids, ids)
}

func TestRouteOracleTableIII(t *testing.T) {
	for _, cfg := range cluster.TableIIIConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			sys, err := cluster.Compose(sim.NewEnv(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAllPairs(t, sys.Net)
		})
	}
}

func TestRouteOracleFleets(t *testing.T) {
	sc := scengen.FleetFromSeed(1) // fleetsim's default scenario
	for _, tc := range []struct {
		name string
		opts cluster.FleetOptions
	}{
		{"fleetsim-default", cluster.FleetOptions{Hosts: sc.Hosts, GPUs: sc.GPUs}},
		{"full-chassis", cluster.FleetOptions{Hosts: 3, GPUs: 16}},
		{"2pod-2chassis", cluster.FleetOptions{Hosts: 2, GPUs: 16, Pods: 2, ChassisPerPod: 2, Oversubscription: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, err := cluster.ComposeFleet(sim.NewEnv(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAllPairs(t, fleet.Net)
		})
	}
}

// TestRouteOraclePodFleet covers the 1024-GPU pod fleet: every pair of
// non-leaf nodes (switches, root complexes, adapters) and 2,000 seeded
// pairs of leaves (GPUs, host DRAM, storage), 20 sources × 100
// destinations so the reference builds 20 trees rather than 2,000.
func TestRouteOraclePodFleet(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), perfbench.PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := newRefGraph(fleet.Net)
	var inner, leaves []int
	for id, d := range g.degree {
		if d == 1 {
			leaves = append(leaves, id)
		} else {
			inner = append(inner, id)
		}
	}
	if len(leaves) < len(inner) {
		t.Fatalf("pod fleet has %d leaves and %d inner nodes; expected mostly leaves", len(leaves), len(inner))
	}
	checkPairs(t, fleet.Net, inner, inner)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		dsts := make([]int, 100)
		for j := range dsts {
			dsts[j] = leaves[rng.Intn(len(leaves))]
		}
		checkPairs(t, fleet.Net, []int{leaves[rng.Intn(len(leaves))]}, dsts)
	}
}

// randomNetwork builds a seeded graph that stresses tie-breaking: three
// latencies only (so equal-cost paths abound), a random spanning tree per
// component (so leaves are common), extra links that may be parallel to an
// earlier one, one-way links (one capacity 0) throughout, and up to
// maxComps components, so some pairs are unreachable. Graphs with an even
// node count reserve half the nodes and links they build, so the build
// spends Reserve's slabs and carries on from the heap.
func randomNetwork(rng *rand.Rand, nodes, maxComps int) *fabric.Network {
	net := fabric.NewNetwork(sim.NewEnv())
	if nodes%2 == 0 {
		net.Reserve(nodes/2, nodes/2)
	}
	for i := 0; i < nodes; i++ {
		net.AddNode("n"+strconv.Itoa(i), fabric.KindSwitch)
	}
	connect := func(a, b int) { connectRandom(rng, net, a, b) }
	// Node i belongs to component i % comps.
	comps := 1 + rng.Intn(maxComps)
	member := func(comp int) int { return comp + comps*rng.Intn((nodes-comp+comps-1)/comps) }
	for i := comps; i < nodes; i++ {
		a, b := i, i%comps+comps*rng.Intn(i/comps)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		connect(a, b)
	}
	for e := rng.Intn(nodes); e > 0; e-- {
		a := rng.Intn(nodes)
		if b := member(a % comps); b != a {
			connect(a, b)
		}
	}
	return net
}

// connectRandom links a and b with one of three latencies; one link in
// three is one-way (a capacity of 0), and one in five gets a parallel
// twin.
func connectRandom(rng *rand.Rand, net *fabric.Network, a, b int) {
	capAB, capBA := units.GBps(1), units.GBps(1)
	switch rng.Intn(6) {
	case 0:
		capAB = 0
	case 1:
		capBA = 0
	}
	lat := time.Duration(rng.Intn(3)) * 100 * time.Nanosecond
	net.Connect(fabric.NodeID(a), fabric.NodeID(b), capAB, capBA, lat, "x")
	if rng.Intn(5) == 0 {
		net.Connect(fabric.NodeID(a), fabric.NodeID(b), capAB, capBA, lat, "x")
	}
}

func TestRouteOracleRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(40)
		if seed%20 == 0 { // past the per-pair reference, onto per-tree
			nodes = refPerPairLimit + 1 + rng.Intn(40)
		}
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			checkAllPairs(t, randomNetwork(rng, nodes, 3))
		})
	}
}

// TestRouteOracleGraphGrowsAfterRouting adds nodes and links, one-way
// ones included, after routing has begun, so every round's searches run
// on an adjacency rebuilt from the grown link list. Each round's routes
// must match the reference hop for hop, the first search of a round must
// rebuild the adjacency once, and no other search may rebuild it.
func TestRouteOracleGraphGrowsAfterRouting(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			net := randomNetwork(rng, 2+rng.Intn(20), 4)
			want := 1 // the first round builds the adjacency
			for round := 0; round < 5; round++ {
				builds := net.AdjBuilds()
				checkAllPairs(t, net)
				if got := net.AdjBuilds() - builds; got != want {
					t.Fatalf("round %d: %d adjacency builds, want %d", round, got, want)
				}
				nodes, links := len(net.Nodes()), len(net.Links())
				for i := rng.Intn(4); i > 0; i-- {
					net.AddNode("g"+strconv.Itoa(len(net.Nodes())), fabric.KindSwitch)
				}
				grown := len(net.Nodes())
				for e := 1 + rng.Intn(6); e > 0; e-- {
					// New nodes take part in at least half the links.
					a, b := rng.Intn(grown), rng.Intn(grown)
					if grown > nodes && rng.Intn(2) == 0 {
						a = nodes + rng.Intn(grown-nodes)
					}
					if a != b {
						connectRandom(rng, net, a, b)
					}
				}
				want = 0
				if len(net.Nodes()) != nodes || len(net.Links()) != links {
					want = 1
				}
			}
		})
	}
}

// TestRouteAdjacencyFollowsConnect pins that routing lists the directions
// a link had capacity in when Connect ran: a one-way link later given
// capacity both ways by SetLinkCapacity stays one-way for routing, also
// after a graph change rebuilds the adjacency.
func TestRouteAdjacencyFollowsConnect(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindSwitch)
	b := net.AddNode("b", fabric.KindSwitch)
	c := net.AddNode("c", fabric.KindSwitch)
	oneWay := net.Connect(a, b, units.GBps(1), 0, 0, "x")
	net.ConnectSym(b, c, units.GBps(1), 0, "x")
	net.ConnectSym(c, a, units.GBps(1), 0, "x")
	want := []fabric.Hop{{Link: 1, Forward: true}, {Link: 2, Forward: true}}
	for round := 0; round < 2; round++ {
		builds := net.AdjBuilds()
		got, err := net.RouteHops(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: b→a routed %v, want %v around the one-way link", round, got, want)
		}
		if net.AdjBuilds() != builds+1 {
			t.Fatalf("round %d: the search did not rebuild the adjacency", round)
		}
		net.SetLinkCapacity(oneWay, units.GBps(1), units.GBps(1))
		net.AddNode("grown"+strconv.Itoa(round), fabric.KindSwitch)
	}
}

// TestRouteOracleLeafExit diffs the leaf-destination early exit against
// the reference on small graphs built around its edge cases. Each case
// also names one route and the heap pops its search takes: a leaf dst's
// search ends when its one neighbour settles, any other dst's when dst
// itself does.
func TestRouteOracleLeafExit(t *testing.T) {
	gb, lat := units.GBps(1), 100*time.Nanosecond
	for _, tc := range []struct {
		name     string
		build    func(net *fabric.Network)
		src, dst fabric.NodeID
		reach    bool
		pops     int
	}{
		{
			// 2 is a leaf whose only link leaves it: it has an out-link,
			// so the search stops at its neighbour, and finds no path.
			name: "one-way-out-leaf",
			build: func(net *fabric.Network) {
				net.ConnectSym(0, 1, gb, lat, "x")
				net.Connect(2, 1, gb, 0, lat, "x")
				net.ConnectSym(1, 3, gb, lat, "x")
				net.ConnectSym(3, 4, gb, lat, "x")
			},
			src: 0, dst: 2, pops: 2,
		},
		{
			// src is the hub every leaf hangs off; the other hub's side is
			// cheaper, so a search without the exit would settle it first.
			name: "src-is-only-neighbour",
			build: func(net *fabric.Network) {
				net.ConnectSym(0, 1, gb, 0, "x")
				net.ConnectSym(1, 2, gb, 0, "x")
				net.ConnectSym(0, 3, gb, 5*lat, "x")
				net.ConnectSym(0, 4, gb, 5*lat, "x")
			},
			src: 0, dst: 4, reach: true, pops: 1,
		},
		{
			// Two leaves joined to each other, beside a second component.
			name: "two-node-component",
			build: func(net *fabric.Network) {
				net.ConnectSym(0, 1, gb, lat, "x")
				net.ConnectSym(2, 3, gb, lat, "x")
				net.ConnectSym(3, 4, gb, lat, "x")
			},
			src: 1, dst: 0, reach: true, pops: 1,
		},
		{
			// 4 is dst's neighbour. It is reached from 1 and from 2 at one
			// cost, and settles tied with 3, which has a lower ID.
			name: "neighbour-settles-tied",
			build: func(net *fabric.Network) {
				net.ConnectSym(0, 1, gb, lat, "x")
				net.ConnectSym(0, 2, gb, lat, "x")
				net.ConnectSym(1, 3, gb, lat, "x")
				net.ConnectSym(2, 4, gb, lat, "x")
				net.ConnectSym(1, 4, gb, lat, "x")
				net.ConnectSym(4, 5, gb, lat, "x")
				net.ConnectSym(3, 6, gb, 0, "x")
				net.ConnectSym(6, 7, gb, lat, "x")
			},
			src: 0, dst: 5, reach: true, pops: 5,
		},
		{
			// dst has degree 2 through two parallel links from one
			// neighbour, so it is no leaf and the search runs until dst
			// itself settles; the cheaper link must win.
			name: "parallel-links",
			build: func(net *fabric.Network) {
				net.ConnectSym(0, 1, gb, lat, "x")
				net.ConnectSym(1, 2, gb, 3*lat, "x")
				net.ConnectSym(1, 2, gb, lat, "x")
				net.ConnectSym(1, 3, gb, 0, "x")
				net.ConnectSym(3, 4, gb, 0, "x")
			},
			src: 0, dst: 2, reach: true, pops: 4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := fabric.NewNetwork(sim.NewEnv())
			for i := 0; i < 8; i++ {
				net.AddNode("n"+strconv.Itoa(i), fabric.KindSwitch)
			}
			tc.build(net)
			_, before := net.RouteWork()
			_, err := net.Route(tc.src, tc.dst)
			if (err == nil) != tc.reach {
				t.Fatalf("route %d→%d: err %v, want reachable=%v", tc.src, tc.dst, err, tc.reach)
			}
			if _, after := net.RouteWork(); after-before != tc.pops {
				t.Fatalf("route %d→%d popped %d heap entries, want %d", tc.src, tc.dst, after-before, tc.pops)
			}
			checkAllPairs(t, net)
		})
	}
}

// TestLeafRouteSettlesLocally pins the early exit on the pod fleet: a
// route from host DRAM to the host's own storage, and one between two
// GPUs in one drawer, each settle only their source and the leaf's
// neighbour, however far the rest of the fleet is.
func TestLeafRouteSettlesLocally(t *testing.T) {
	fleet, err := cluster.ComposeFleet(sim.NewEnv(), perfbench.PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	host, a, b := fleet.Hosts[0], fleet.Slots[0], fleet.Slots[1]
	if a.Drawer != b.Drawer {
		t.Fatalf("slots 0 and 1 are in drawers %d and %d", a.Drawer, b.Drawer)
	}
	for _, r := range []struct {
		name     string
		src, dst fabric.NodeID
	}{
		{"dram→nvme", host.Mem, fleet.JobSystem(nil, host, nil, "leaf").Store.Node},
		{"gpu→gpu same drawer", a.Node, b.Node},
	} {
		searches, pops := fleet.Net.RouteWork()
		if _, err := fleet.Net.Route(r.src, r.dst); err != nil {
			t.Fatal(err)
		}
		s, p := fleet.Net.RouteWork()
		if s-searches != 1 || p-pops > 3 {
			t.Errorf("%s: %d searches, %d heap pops; want 1 search, ≤ 3 pops", r.name, s-searches, p-pops)
		}
	}
}
