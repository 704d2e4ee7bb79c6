// Package fabric simulates the interconnect of the composable system: a
// graph of PCIe root complexes, PCIe switches, NVLink meshes and devices,
// with data transfers modeled as fluid flows that share link bandwidth
// max-min fairly.
//
// This flow-level model is what turns the higher-level workload models into
// the paper's observed behaviour: when eight Falcon-attached GPUs run a
// NCCL-style ring all-reduce, their flows contend on the drawer switch and
// host-adapter links and the achievable bus bandwidth drops — exactly the
// PCIe-switching overhead the paper measures in Figures 11 and 12.
//
// For reference (paper Fig. 5, citing Papaioannou et al.), the latency
// ladder this fabric spans: CPU-to-memory ~ns, GPU-to-GPU NVLink ~1-2 µs,
// GPU across a PCIe switch ~2-3 µs, storage ~100 µs. Those orders of
// magnitude come out of the link parameters in package cluster.
package fabric

import (
	"fmt"
	"math"
	"slices"
	"time"

	"composable/internal/units"
)

// NodeID identifies a node in the fabric graph.
type NodeID int

// NodeKind classifies fabric nodes; the fabric itself treats all nodes
// uniformly, but composition and reporting layers use the kind.
type NodeKind string

// Node kinds used by the composable system model.
const (
	KindRootComplex NodeKind = "root-complex" // host CPU PCIe root
	KindSwitch      NodeKind = "pcie-switch"  // Falcon drawer switch
	KindHostAdapter NodeKind = "host-adapter" // Falcon host port adapter card
	KindGPU         NodeKind = "gpu"
	KindNVMe        NodeKind = "nvme"
	KindNIC         NodeKind = "nic"
	KindMemory      NodeKind = "memory" // host DRAM target
)

// Node is a vertex in the fabric graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// LinkID identifies an undirected link (a pair of directed channels).
type LinkID int

// Link is a full-duplex connection between two nodes with independent
// per-direction capacities, a one-way traversal latency, and a protocol
// label (surfaced in Table IV).
//
// CapAtoB and CapBtoA may be written directly only before any flow starts.
// Mid-run changes must go through Network.SetLinkCapacity, which is what
// tells the allocator to re-solve the flows crossing the link.
type Link struct {
	ID       LinkID
	A, B     NodeID
	CapAtoB  units.BytesPerSec
	CapBtoA  units.BytesPerSec
	Latency  time.Duration
	Protocol string

	// Cumulative bytes moved in each direction, maintained continuously
	// by the flow engine; these back the Falcon port-traffic monitors
	// and Figure 12.
	bytesAtoB float64
	bytesBtoA float64
}

// BytesAtoB returns cumulative bytes moved A→B.
func (l *Link) BytesAtoB() units.Bytes { return units.Bytes(l.bytesAtoB) }

// BytesBtoA returns cumulative bytes moved B→A.
func (l *Link) BytesBtoA() units.Bytes { return units.Bytes(l.bytesBtoA) }

// ExactBytes returns the cumulative A→B and B→A counters as the flow
// engine keeps them, before BytesAtoB and BytesBtoA truncate them to whole
// bytes. Oracles compare them bit for bit.
//
//lint:allow deadapi(oracle hook: the collective legs oracle compares raw link counters)
func (l *Link) ExactBytes() (atob, btoa float64) { return l.bytesAtoB, l.bytesBtoA }

// dirLink is one direction of a Link.
type dirLink struct {
	link    *Link
	forward bool // true: A→B
}

func (d dirLink) capacity() float64 {
	if d.forward {
		return float64(d.link.CapAtoB)
	}
	return float64(d.link.CapBtoA)
}

func (d dirLink) addBytes(n float64) {
	if d.forward {
		d.link.bytesAtoB += n
	} else {
		d.link.bytesBtoA += n
	}
}

func (d dirLink) from() NodeID {
	if d.forward {
		return d.link.A
	}
	return d.link.B
}

func (d dirLink) to() NodeID {
	if d.forward {
		return d.link.B
	}
	return d.link.A
}

// addGraphStructures indexes a new link for routing.
func (n *Network) addGraphStructures(l *Link) {
	if l.CapAtoB > 0 {
		n.addAdj(l.A, dirLink{link: l, forward: true})
	}
	if l.CapBtoA > 0 {
		n.addAdj(l.B, dirLink{link: l, forward: false})
	}
	n.degree[l.A]++
	n.degree[l.B]++
	n.routes = nil
	n.graph++
}

// addAdj appends an out-link to a node. A node's first out-link comes from
// the reserved slab as a one-element list, so the many degree-one
// endpoints cost no allocation; a second out-link moves the list to the
// heap as a plain append would.
func (n *Network) addAdj(id NodeID, dl dirLink) {
	if n.adj[id] == nil && len(n.adjSlab) < cap(n.adjSlab) {
		n.adjSlab = append(n.adjSlab, dl)
		k := len(n.adjSlab)
		n.adj[id] = n.adjSlab[k-1 : k : k]
		return
	}
	n.adj[id] = append(n.adj[id], dl)
}

// Reserve presizes the graph for nodes more nodes and links more links:
// the per-node and per-link indexes grow once, and the Node and Link
// structs and each node's first out-link come from one slab each instead
// of one allocation apiece. IDs still follow creation order, and a wrong
// estimate costs only allocations: past the reservation, nodes and links
// come from the heap.
func (n *Network) Reserve(nodes, links int) {
	n.nodes = slices.Grow(n.nodes, nodes)
	n.adj = slices.Grow(n.adj, nodes)
	n.degree = slices.Grow(n.degree, nodes)
	n.links = slices.Grow(n.links, links)
	n.linkCons = slices.Grow(n.linkCons, 2*links)
	n.nodeSlab = make([]Node, 0, nodes)
	n.linkSlab = make([]Link, 0, links)
	n.adjSlab = make([]dirLink, 0, nodes)
}

// fromSlab returns the next zeroed element of a reserved slab, or a new
// heap element once the slab is spent.
func fromSlab[T any](slab *[]T) *T {
	s := *slab
	if len(s) == cap(s) {
		return new(T)
	}
	s = s[:len(s)+1]
	*slab = s
	return &s[len(s)-1]
}

// AddNode adds a node and returns its ID.
func (n *Network) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(n.nodes))
	nd := fromSlab(&n.nodeSlab)
	*nd = Node{ID: id, Name: name, Kind: kind}
	n.nodes = append(n.nodes, nd)
	n.adj = append(n.adj, nil)
	n.degree = append(n.degree, 0)
	n.routes = nil
	n.graph++
	return id
}

// Nodes returns all nodes in creation order.
//
//lint:allow deadapi(the compose pins hash every node, and the route and waterfill oracles size their graphs by it)
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Connect adds a full-duplex link between a and b.
func (n *Network) Connect(a, b NodeID, capAB, capBA units.BytesPerSec, latency time.Duration, protocol string) LinkID {
	if a == b {
		panic("fabric: self-link")
	}
	l := fromSlab(&n.linkSlab)
	*l = Link{
		ID: LinkID(len(n.links)), A: a, B: b,
		CapAtoB: capAB, CapBtoA: capBA,
		Latency: latency, Protocol: protocol,
	}
	n.links = append(n.links, l)
	n.linkCons = append(n.linkCons, nil, nil)
	n.addGraphStructures(l)
	return l.ID
}

// ConnectSym adds a link with equal capacity in both directions.
func (n *Network) ConnectSym(a, b NodeID, cap units.BytesPerSec, latency time.Duration, protocol string) LinkID {
	return n.Connect(a, b, cap, cap, latency, protocol)
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// routeEntry is one cached route from a row's source; path == nil means
// dst is unreachable.
type routeEntry struct {
	dst  NodeID
	path []dirLink
}

// Route returns the directed links on the preferred path src→dst, or an
// error if dst is unreachable. Paths minimize total latency with a small
// per-hop penalty (so that, capacities being equal, fewer switch traversals
// win — matching real PCIe/NVLink route selection) and are cached in one
// row per source, scanned linearly. A source routes to few destinations
// (at most 21 in any bench/ workload), so the scan stays short on every
// graph size and the cache grows with the pairs routed, not with nodes².
//
//perf:hot
func (n *Network) Route(src, dst NodeID) ([]dirLink, error) {
	if src == dst {
		return nil, nil
	}
	if len(n.routes) != len(n.nodes) {
		n.routes = make([][]routeEntry, len(n.nodes))
	}
	row := n.routes[src]
	i := 0
	for i < len(row) && row[i].dst != dst {
		i++
	}
	if i == len(row) {
		row = append(row, routeEntry{dst, n.dijkstra(src, dst)})
		n.routes[src] = row
	}
	if row[i].path == nil {
		return nil, n.noPathErr(src, dst)
	}
	return row[i].path, nil
}

func (n *Network) noPathErr(src, dst NodeID) error {
	return fmt.Errorf("fabric: no path %s → %s", n.nodes[src].Name, n.nodes[dst].Name)
}

// hopPenalty breaks ties between equal-latency paths in favor of fewer hops.
const hopPenalty = 10 * time.Nanosecond

// dijkstra returns the preferred src→dst path, or nil when dst is
// unreachable. It settles nodes from a binary heap in (dist, node) order
// and relaxes with a strict <, so among equal-cost paths the one reached
// first in that order wins; every cached route depends on that tie-break.
// A stale heap entry is recognized by its dist, not by a decrease-key:
// each push strictly lowers a node's dist, so only its latest entry still
// matches.
//
// Three things keep a search cheap on fleet-scale graphs, where most nodes
// are endpoints:
//   - The scratch is stamped, not cleared: a node's dist and prev count
//     only while its seen stamp equals the current epoch.
//   - Leaves are never pushed. A node with one incident link cannot be an
//     interior node of a simple path, so settling it would relax nothing;
//     unless it is dst, it gets its dist and prev and stays off the heap.
//     Settle order and routes are exactly those of a search that pushes it.
//   - A leaf dst ends the search early. It can be entered only from its
//     one neighbour, so once that neighbour settles and relaxes, dst's
//     dist and prev are final while other nodes are still on the heap.
//     The neighbour is read off dst's out-link; a leaf whose one link
//     only enters it has none, so its search runs until dst settles.
func (n *Network) dijkstra(src, dst NodeID) []dirLink {
	nn := len(n.nodes)
	if len(n.djDist) < nn {
		n.djDist = make([]int64, nn)
		n.djPrev = make([]dirLink, nn)
		n.djSeen = make([]uint32, nn)
		n.djEpoch = 0
	}
	n.djEpoch++
	if n.djEpoch == 0 { // wrapped: a stamp from 2³² searches ago would match
		clear(n.djSeen)
		n.djEpoch = 1
	}
	epoch := n.djEpoch
	dist, prev, seen := n.djDist[:nn], n.djPrev[:nn], n.djSeen[:nn]
	via := dst // the node whose settling makes dst final
	if n.degree[dst] == 1 && len(n.adj[dst]) == 1 {
		via = n.adj[dst][0].to()
	}
	n.routeSearches++
	dist[src], seen[src] = 0, epoch
	h := heapPush(n.djHeap[:0], heapItem{0, src})
	for len(h) > 0 {
		var it heapItem
		h, it = heapPop(h)
		n.routePops++
		if it.dist != dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, dl := range n.adj[it.node] {
			to := dl.to()
			nd := it.dist + int64(dl.link.Latency) + int64(hopPenalty)
			if seen[to] == epoch && nd >= dist[to] {
				continue
			}
			dist[to], prev[to], seen[to] = nd, dl, epoch
			if to == dst || n.degree[to] != 1 {
				h = heapPush(h, heapItem{nd, to})
			}
		}
		if it.node == via {
			break
		}
	}
	n.djHeap = h[:0]
	if seen[dst] != epoch {
		return nil
	}
	return n.djPath(src, dst)
}

// djPath reconstructs the src→dst path from the prev pointers.
func (n *Network) djPath(src, dst NodeID) []dirLink {
	prev := n.djPrev[:len(n.nodes)]
	rev := n.djRev[:0]
	for at := dst; at != src; at = prev[at].from() {
		rev = append(rev, prev[at])
	}
	n.djRev = rev
	path := make([]dirLink, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// heapItem is one dijkstra frontier entry.
type heapItem struct {
	dist int64
	node NodeID
}

// heapLess orders the frontier by (dist, node): among equal distances the
// lowest node index settles first. Routes depend on this order;
// route_oracle_test.go pins it against a linear-scan reference.
func heapLess(a, b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

func heapPush(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []heapItem) ([]heapItem, heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && heapLess(h[l], h[s]) {
			s = l
		}
		if r < len(h) && heapLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
}

// PathLatency returns the one-way latency of the preferred src→dst path
// plus the per-endpoint overheads registered on the network (DMA engine
// setup, driver stack), which is what a p2p latency microbenchmark sees.
func (n *Network) PathLatency(src, dst NodeID) (time.Duration, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	total := n.EndpointOverhead
	for _, dl := range path {
		total += dl.link.Latency
	}
	return total, nil
}

// PathProtocol describes the protocol of a path: the single protocol if
// uniform, otherwise the protocol of the bottleneck (lowest-capacity) hop.
func (n *Network) PathProtocol(src, dst NodeID) (string, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return "", err
	}
	if len(path) == 0 {
		return "local", nil
	}
	proto := path[0].link.Protocol
	bottleneck := path[0]
	for _, dl := range path[1:] {
		if dl.capacity() < bottleneck.capacity() {
			bottleneck = dl
		}
		if dl.link.Protocol != proto {
			proto = bottleneck.link.Protocol
		}
	}
	return proto, nil
}

// PathBottleneck returns the minimum directed capacity along src→dst.
func (n *Network) PathBottleneck(src, dst NodeID) (units.BytesPerSec, error) {
	path, err := n.Route(src, dst)
	if err != nil {
		return 0, err
	}
	best := math.MaxFloat64
	for _, dl := range path {
		if c := dl.capacity(); c < best {
			best = c
		}
	}
	if len(path) == 0 {
		return 0, nil
	}
	return units.BytesPerSec(best), nil
}
