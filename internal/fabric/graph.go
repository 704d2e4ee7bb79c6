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
// label (surfaced in Table IV). Routes name a direction of a link by a
// 4-byte handle, 2·ID for A→B and 2·ID+1 for B→A, never by a pointer.
//
// CapAtoB and CapBtoA may be written directly only before any flow starts.
// Mid-run changes must go through Network.SetLinkCapacity, which is what
// tells the allocator to re-solve the flows crossing the link. Latency may
// be written only before the first route: routing reads it once per graph
// change.
type Link struct {
	ID       LinkID
	A, B     NodeID
	CapAtoB  units.BytesPerSec
	CapBtoA  units.BytesPerSec
	Latency  time.Duration
	Protocol string

	// Cumulative bytes moved A→B (bytes[0]) and B→A (bytes[1]), indexed
	// by a direction's side and maintained continuously by the flow
	// engine; these back the Falcon port-traffic monitors and Figure 12.
	bytes [2]float64
}

// BytesAtoB returns cumulative bytes moved A→B.
func (l *Link) BytesAtoB() units.Bytes { return units.Bytes(l.bytes[0]) }

// BytesBtoA returns cumulative bytes moved B→A.
func (l *Link) BytesBtoA() units.Bytes { return units.Bytes(l.bytes[1]) }

// ExactBytes returns the cumulative A→B and B→A counters as the flow
// engine keeps them, before BytesAtoB and BytesBtoA truncate them to whole
// bytes. Oracles compare them bit for bit.
//
//lint:allow deadapi(oracle hook: the collective legs oracle compares raw link counters)
func (l *Link) ExactBytes() (atob, btoa float64) { return l.bytes[0], l.bytes[1] }

// capacity returns the link's capacity on side 0 (A→B) or 1 (B→A).
func (l *Link) capacity(side int) float64 {
	if side == 0 {
		return float64(l.CapAtoB)
	}
	return float64(l.CapBtoA)
}

// dir is the fabric's one name for a direction of a link: 2·LinkID for
// A→B, plus 1 for B→A. Routes, the routing adjacency, search
// predecessors and the constraint index all hold dirs.
type dir int32

// link returns the ID of the link d crosses.
func (d dir) link() LinkID { return LinkID(d >> 1) }

// side is 0 if d crosses its link A→B and 1 if B→A.
func (d dir) side() int { return int(d & 1) }

// from returns the node d leaves.
func (n *Network) from(d dir) NodeID {
	l := n.links[d.link()]
	if d.side() == 0 {
		return l.A
	}
	return l.B
}

// Handle limits: node IDs are kept as int32 and a direction handle,
// 2·LinkID+1, must fit an int32 too, so a graph holds at most 2³¹ nodes
// and 2³⁰ links.
const (
	maxNodes int64 = 1 << 31
	maxLinks int64 = 1 << 30
)

// checkHandleRange panics if a graph that holds count nodes or links
// (what) cannot take one more under limit.
func checkHandleRange(what string, count, limit int64) {
	if count >= limit {
		panic(fmt.Sprintf("fabric: a graph holds at most %d %s (routing handles are int32)", limit, what))
	}
}

// Reserve presizes the graph for nodes more nodes and links more links:
// the per-node and per-link indexes grow once, and the Node and Link
// structs come from one slab each instead of one allocation apiece. IDs
// still follow creation order, and a wrong estimate costs only
// allocations: past the reservation, nodes and links come from the heap.
func (n *Network) Reserve(nodes, links int) {
	n.nodes = slices.Grow(n.nodes, nodes)
	n.links = slices.Grow(n.links, links)
	n.linkDirs = slices.Grow(n.linkDirs, links)
	n.linkCons = slices.Grow(n.linkCons, 2*links)
	n.nodeSlab = make([]Node, 0, nodes)
	n.linkSlab = make([]Link, 0, links)
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
	checkHandleRange("nodes", int64(len(n.nodes)), maxNodes)
	id := NodeID(len(n.nodes))
	nd := fromSlab(&n.nodeSlab)
	*nd = Node{ID: id, Name: name, Kind: kind}
	n.nodes = append(n.nodes, nd)
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
	checkHandleRange("links", int64(len(n.links)), maxLinks)
	l := fromSlab(&n.linkSlab)
	*l = Link{
		ID: LinkID(len(n.links)), A: a, B: b,
		CapAtoB: capAB, CapBtoA: capBA,
		Latency: latency, Protocol: protocol,
	}
	n.links = append(n.links, l)
	n.linkDirs = append(n.linkDirs, routed(capAB)|routed(capBA)<<1)
	n.linkCons = append(n.linkCons, nil, nil)
	n.graph++
	return l.ID
}

// routed is the linkDirs bit of a direction with capacity c.
func routed(c units.BytesPerSec) uint8 {
	if c > 0 {
		return 1
	}
	return 0
}

// ConnectSym adds a link with equal capacity in both directions.
func (n *Network) ConnectSym(a, b NodeID, cap units.BytesPerSec, latency time.Duration, protocol string) LinkID {
	return n.Connect(a, b, cap, cap, latency, protocol)
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// routeEntry is one cached route, 16 bytes: its destination, the next
// entry cached for the same source (0 ends the list) and where its path
// lies, hops directions from offset off of hop block blk. hops < 0 means
// dst is unreachable.
type routeEntry struct {
	dst, next int32
	hops      int32
	blk, off  uint16
}

// Route cache sizing. The entry list starts with room for
// firstRouteEntries and doubles. Hop blocks start at firstHopBlock
// directions and double up to maxHopBlock, which keeps a path's offset
// within a routeEntry's uint16; a longer path gets a block of its own. An
// entry's uint16 names one of at most maxHopBlocks blocks, so a cache
// that has used them all starts again from an empty index.
const (
	firstRouteEntries = 16
	firstHopBlock     = 64
	maxHopBlock       = 2048
	maxHopBlocks      = 1 << 16
)

// Route returns the directed links on the preferred path src→dst, or an
// error if dst is unreachable. Paths minimize total latency with a small
// per-hop penalty (so that, capacities being equal, fewer switch traversals
// win — matching real PCIe/NVLink route selection) and are cached per
// source: each source's routes form a list of 16-byte entries, scanned
// linearly. A source routes to few destinations (at most 21 in any bench/
// workload), so the scan stays short on every graph size and the cache
// grows with the pairs routed, not with nodes².
//
// The returned path is carved from a shared hop block and stays valid,
// unchanged, for as long as the caller holds it: blocks are never moved
// or reused. A graph change (AddNode, Connect) drops the cache's index
// and later routes go to fresh blocks, so paths already handed out keep
// their old routes.
//
//perf:hot
func (n *Network) Route(src, dst NodeID) ([]dir, error) {
	if src == dst {
		return nil, nil
	}
	if n.routeGen != n.graph { // the graph changed since the index was built
		n.buildAdj()
		n.dropRoutes()
	}
	last, i := int32(0), n.routeHead[src]
	for i != 0 && n.routeEntries[i].dst != int32(dst) {
		last, i = i, n.routeEntries[i].next
	}
	if i == 0 {
		if len(n.hopBlocks) == maxHopBlocks { // no block number left
			n.dropRoutes()
			last = 0
		}
		i = n.cacheRoute(src, dst, last)
	}
	e := n.routeEntries[i]
	if e.hops < 0 {
		return nil, n.noPathErr(src, dst)
	}
	lo, hi := int(e.off), int(e.off)+int(e.hops)
	return n.hopBlocks[e.blk][lo:hi:hi], nil
}

// dropRoutes empties the route cache's index for the current graph. The
// hop blocks leave the index too, but paths handed out keep them alive.
func (n *Network) dropRoutes() {
	nn := len(n.nodes)
	if cap(n.routeHead) < nn {
		n.routeHead = make([]int32, nn)
	} else {
		n.routeHead = n.routeHead[:nn]
		clear(n.routeHead)
	}
	// Entry 0 is a sentinel, so index 0 can end a list.
	if n.routeEntries == nil {
		n.routeEntries = make([]routeEntry, 1, firstRouteEntries)
	}
	n.routeEntries = n.routeEntries[:1]
	clear(n.hopBlocks)
	n.hopBlocks = n.hopBlocks[:0]
	n.routeGen = n.graph
}

// cacheRoute searches src→dst, stores the result in a new entry, links
// it after entry last (or first in src's list when last is 0) and
// returns its index.
func (n *Network) cacheRoute(src, dst NodeID, last int32) int32 {
	e := routeEntry{dst: int32(dst), hops: -1}
	if n.dijkstra(src, dst) {
		e.blk, e.off, e.hops = n.storePath(src, dst)
	}
	i := int32(len(n.routeEntries))
	if int(i) == cap(n.routeEntries) {
		// Double, where append would grow a long list by a quarter at a
		// time, so all the copies together cost less than the list.
		grown := make([]routeEntry, i, 2*int(i))
		copy(grown, n.routeEntries)
		n.routeEntries = grown
	}
	n.routeEntries = append(n.routeEntries, e)
	if last == 0 {
		n.routeHead[src] = i
	} else {
		n.routeEntries[last].next = i
	}
	return i
}

// storePath carves room for the src→dst path the last search found from
// the current hop block, starting a new block when it lacks room, and
// fills it from the predecessors, dst's end first.
func (n *Network) storePath(src, dst NodeID) (blk, off uint16, hops int32) {
	prev := n.djPrev[:len(n.nodes)]
	k := 0
	for at := dst; at != src; at = n.from(prev[at]) {
		k++
	}
	b := len(n.hopBlocks) - 1
	if b < 0 || cap(n.hopBlocks[b])-len(n.hopBlocks[b]) < k {
		size := firstHopBlock
		if b >= 0 {
			size = min(2*cap(n.hopBlocks[b]), maxHopBlock)
		}
		n.hopBlocks = append(n.hopBlocks, make([]dir, 0, max(size, k)))
		b++
	}
	block := n.hopBlocks[b]
	o := len(block)
	block = block[:o+k]
	n.hopBlocks[b] = block
	for at, i := dst, o+k; at != src; at = n.from(prev[at]) {
		i--
		block[i] = prev[at]
	}
	return uint16(b), uint16(o), int32(k)
}

func (n *Network) noPathErr(src, dst NodeID) error {
	return fmt.Errorf("fabric: no path %s → %s", n.nodes[src].Name, n.nodes[dst].Name)
}

// hopPenalty breaks ties between equal-latency paths in favor of fewer hops.
const hopPenalty = 10 * time.Nanosecond

// dijkstra searches for the preferred src→dst path and reports whether
// dst is reachable; the path is left in djPrev for storePath. It settles
// nodes from a binary heap in (dist, node) order and relaxes with a
// strict <, so among equal-cost paths the one reached first in that order
// wins; every cached route depends on that tie-break. A stale heap entry
// is recognized by its dist, not by a decrease-key: each push strictly
// lowers a node's dist, so only its latest entry still matches.
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
func (n *Network) dijkstra(src, dst NodeID) bool {
	nn := len(n.nodes)
	if len(n.djDist) < nn {
		n.djDist = make([]int64, nn)
		n.djPrev = make([]dir, nn)
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
	off, adj, degree, cost := n.adjOff, n.adjList, n.degree, n.adjCost
	via := dst // the node whose settling makes dst final
	if degree[dst] == 1 && off[dst+1]-off[dst] == 1 {
		via = NodeID(adj[off[dst]].to)
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
		for _, e := range adj[off[it.node]:off[it.node+1]] {
			to := NodeID(e.to)
			nd := it.dist + cost[e.d.link()]
			if seen[to] == epoch && nd >= dist[to] {
				continue
			}
			dist[to], prev[to], seen[to] = nd, e.d, epoch
			if to == dst || degree[to] != 1 {
				h = heapPush(h, heapItem{nd, to})
			}
		}
		if it.node == via {
			break
		}
	}
	n.djHeap = h[:0]
	return seen[dst] == epoch
}

// adjHop is one routing adjacency entry: a direction and the node it
// enters. The search reads both, and the link's cost, from dense arrays
// rather than from the Link, which on a fleet-sized graph is far slower.
type adjHop struct {
	d  dir
	to int32
}

// buildAdj builds the routing adjacency from the link list. A counting
// sort by source node keeps each node's out-directions in link order, the
// order Connect saw them, so equal-cost ties resolve as they always have.
// It also takes each link's search cost, its latency plus hopPenalty.
func (n *Network) buildAdj() {
	nn := len(n.nodes)
	// Count node v's out-directions in off[v+2]; the prefix sum then
	// leaves v's start in off[v+1], the cursor the fill advances to v's
	// end, which is v+1's start: off[:nn+1] ends up as the offsets.
	off, degree := make([]int32, nn+2), make([]int32, nn)
	for i, l := range n.links {
		for d, from := range [2]NodeID{l.A, l.B} {
			off[from+2] += int32(n.linkDirs[i] >> d & 1)
		}
		degree[l.A]++
		degree[l.B]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	adj := make([]adjHop, off[nn+1])
	for i, l := range n.links {
		ends := [2]NodeID{l.A, l.B}
		for d, from := range ends {
			if n.linkDirs[i]>>d&1 != 0 {
				adj[off[from+1]] = adjHop{dir(2*i + d), int32(ends[1-d])}
				off[from+1]++
			}
		}
	}
	cost := make([]int64, len(n.links))
	for i, l := range n.links {
		cost[i] = int64(l.Latency) + int64(hopPenalty)
	}
	n.adjOff, n.adjList, n.degree, n.adjCost = off[:nn+1], adj, degree, cost
	n.adjBuilds++
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
	for _, d := range path {
		total += n.links[d.link()].Latency
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
	bottleneck := n.links[path[0]>>1]
	proto, least := bottleneck.Protocol, bottleneck.capacity(path[0].side())
	for _, d := range path[1:] {
		l := n.links[d.link()]
		if c := l.capacity(d.side()); c < least {
			bottleneck, least = l, c
		}
		if l.Protocol != proto {
			proto = bottleneck.Protocol
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
	for _, d := range path {
		if c := n.links[d.link()].capacity(d.side()); c < best {
			best = c
		}
	}
	if len(path) == 0 {
		return 0, nil
	}
	return units.BytesPerSec(best), nil
}
