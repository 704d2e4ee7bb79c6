package orchestrator

import (
	"fmt"
	"strings"
)

// View is the scheduler state a Policy decides over. Only the scheduler
// builds one, and it is live: one View, kept current in place as slots
// and hosts change, is handed to every Place call, so a policy must
// neither retain it across calls nor modify it.
type View struct {
	Hosts int
	// Drawers is the fleet-global drawer index space (chassis ×
	// falcon.NumDrawers in a pod fleet).
	Drawers int
	// DrawersPerChassis and ChassisPerPod map a global drawer index back
	// to its chassis and pod.
	DrawersPerChassis int
	ChassisPerPod     int
	// Slots in fleet slot order. The order is drawer-contiguous: every
	// drawer's slots form one consecutive range, which the locality
	// policies exploit.
	Slots []SlotView
	// HostActiveGPUs / HostActiveJobs count currently assigned (placed or
	// running) resources per host.
	HostActiveGPUs []int
	HostActiveJobs []int
	// HostChassis / HostPod locate each host in the hierarchy.
	HostChassis []int
	HostPod     []int
	// HostUp marks hosts that can take placements: neither crashed nor
	// in a pod that lost power.
	HostUp []bool

	// scratch provides the policy helpers reusable buffers so the hot
	// placement path allocates nothing.
	scratch *policyScratch
	// idx is the scheduler's maintained free-slot index.
	idx *slotIndex
}

// slotIndex counts the free pool over the drawer-contiguous slot order:
// drawer d's slots are Slots[drawerStart[d]:drawerStart[d+1]].
type slotIndex struct {
	free        int   // free slots in the fleet
	drawerFree  []int // free slots per drawer
	drawerStart []int // per-drawer slot range offsets, len drawers+1
}

// newSlotIndex derives the index of a drawer-contiguous slot list over
// the given number of drawers.
func newSlotIndex(slots []SlotView, drawers int) *slotIndex {
	x := &slotIndex{drawerFree: make([]int, drawers), drawerStart: make([]int, drawers+1)}
	d := 0
	for i, s := range slots {
		for d < s.Drawer {
			d++
			x.drawerStart[d] = i
		}
		if s.Free {
			x.free++
			x.drawerFree[s.Drawer]++
		}
	}
	for d < drawers {
		d++
		x.drawerStart[d] = len(slots)
	}
	return x
}

// policyScratch is the scheduler-owned buffer set behind allocation-free
// policy scoring. Buffers are only valid for the duration of one Place
// call; the picks returned to the scheduler are consumed before the next
// call overwrites them.
type policyScratch struct {
	picks []int      // returned picks (FirstFit, Static, BandwidthAware, spanning DrawerLocal)
	best  []int      // DrawerLocal: the winning drawer's picks
	cands []SlotView // DrawerLocal: the winning drawer's free slots being ranked
	taken []bool     // BandwidthAware: slots already picked this placement
	load  []int      // BandwidthAware: per-drawer active-device counts
}

// pickBuf returns the scratch pick buffer, empty, with at least the given
// capacity.
func (v View) pickBuf(n int) []int {
	sc := v.scratch
	if cap(sc.picks) < n {
		sc.picks = make([]int, 0, n)
	}
	sc.picks = sc.picks[:0]
	return sc.picks
}

// drawerChassis / drawerPod map a global drawer index to its place in the
// hierarchy.
func (v View) drawerChassis(d int) int {
	return d / v.DrawersPerChassis
}

func (v View) drawerPod(d int) int {
	return v.drawerChassis(d) / v.ChassisPerPod
}

// distTier ranks fabric distance from a host's adapter: 0 same chassis
// (drawer-switch hops only), 1 same pod (through the leaf switch), 2
// cross-pod (through the oversubscribed spine). In the degenerate
// single-chassis shape every tier is 0 and distance never discriminates.
func distTier(chassis, pod, hostChassis, hostPod int) int {
	if chassis == hostChassis {
		return 0
	}
	if pod == hostPod {
		return 1
	}
	return 2
}

// SlotView is one GPU slot as a policy sees it.
type SlotView struct {
	Index  int
	Drawer int // fleet-global drawer index
	// Pod and Chassis locate the slot in the hierarchy (zero in the
	// degenerate shape).
	Pod     int
	Chassis int
	// Host the slot is currently attached to (-1 detached). A free slot
	// attached to another host can be taken, at the cost of one
	// recomposition move.
	Host int
	// Free marks a slot with no assigned job that is schedulable now; a
	// Down slot is never Free.
	Free bool
	// Down marks a failed device or unplugged drawer: invisible capacity
	// until the repair lands.
	Down bool
	// Config is the host the slot was attached to when the run began
	// (-1 on a cold fleet): the fixed partition the static policy owns.
	// After a drawer flap re-plugs a detached slot, Config is how the
	// static layout is restored.
	Config int
}

// Request is the head-of-queue job a policy must place.
type Request struct {
	Job    int
	Tenant int
	GPUs   int
}

// Policy picks a host and GPU slots for a job, or reports it cannot yet.
// Implementations must be deterministic pure functions of (View, Request):
// the fleet sweep runs every scenario twice and requires identical
// telemetry.
type Policy interface {
	Name() string
	Place(v View, r Request) (host int, slots []int, ok bool)
}

// Policies returns the built-in policies in shoot-out order.
func Policies() []Policy {
	return []Policy{FirstFit{}, DrawerLocal{}, BandwidthAware{}, Static{}}
}

// PolicyNames lists the built-in policy names.
func PolicyNames() []string {
	ps := Policies()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}

// PolicyByName resolves a built-in policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("orchestrator: unknown policy %q (have %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// sortSlotsByRank stable-sorts candidate slots by (attach rank for host,
// slot index) with a typed insertion sort: the candidate set is one
// drawer's free slots and the closure-free sort keeps policy scoring off
// the allocator.
//
//perf:hot
func sortSlotsByRank(cands []SlotView, host int) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		rc := attachRank(c, host)
		j := i - 1
		for j >= 0 {
			rj := attachRank(cands[j], host)
			if rj < rc || (rj == rc && cands[j].Index < c.Index) {
				break
			}
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}

// sortInts is an allocation-free insertion sort for the short pick lists
// policies return.
//
//perf:hot
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// leastLoadedHost picks the up host with the fewest assigned GPUs,
// breaking ties by fewest assigned jobs, then lowest index. It returns -1
// when every host is down.
func leastLoadedHost(v View) int {
	best := -1
	for h := 0; h < v.Hosts; h++ {
		if !v.HostUp[h] {
			continue
		}
		switch {
		case best == -1:
			best = h
		case v.HostActiveGPUs[h] < v.HostActiveGPUs[best]:
			best = h
		case v.HostActiveGPUs[h] == v.HostActiveGPUs[best] &&
			v.HostActiveJobs[h] < v.HostActiveJobs[best]:
			best = h
		}
	}
	return best
}

// attachRank orders slots by recomposition cost for a target host:
// already attached there (0, free), detached (1, one attach), attached
// elsewhere (2, one reassign).
func attachRank(s SlotView, host int) int {
	switch s.Host {
	case host:
		return 0
	case -1:
		return 1
	default:
		return 2
	}
}

// FirstFit is the naive baseline: every job goes to the lowest-index host
// and takes the first free GPUs in slot order. It ignores drawer locality,
// attachment state and host load — the contention it piles onto host 1's
// CPU, storage and adapter is what the policy shoot-out (S2) measures.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "firstfit" }

// Place implements Policy.
//
//perf:hot
func (FirstFit) Place(v View, r Request) (int, []int, bool) {
	if v.idx.free < r.GPUs {
		return 0, nil, false
	}
	picks := v.pickBuf(r.GPUs)
	for _, s := range v.Slots {
		if s.Free {
			picks = append(picks, s.Index)
			if len(picks) == r.GPUs {
				break
			}
		}
	}
	// Lowest-index host that hasn't crashed (host 1 absent faults).
	for h := 0; h < v.Hosts; h++ {
		if v.HostUp[h] {
			return h, picks, true
		}
	}
	return 0, nil, false
}

// DrawerLocal spreads jobs across hosts by load and packs each job's GPUs
// into a single drawer when one has room, preferring slots already
// attached to the chosen host: peer (all-reduce) traffic stays inside one
// PCIe switch and recompositions are minimized — §III-B's locality
// argument as a scheduling policy.
type DrawerLocal struct{}

// Name implements Policy.
func (DrawerLocal) Name() string { return "drawer" }

// Place implements Policy.
//
//perf:hot
func (DrawerLocal) Place(v View, r Request) (int, []int, bool) {
	x := v.idx
	if x.free < r.GPUs {
		return 0, nil, false
	}
	host := leastLoadedHost(v)
	if host == -1 {
		return 0, nil, false
	}
	hc, hp := v.HostChassis[host], v.HostPod[host]
	// Single-drawer placements first: among drawers that fit the whole
	// job, take the one whose best slots need the fewest moves (ties:
	// closer to the host, then lower drawer index; in the degenerate
	// shape distance never differs and moves alone decide). A drawer's
	// best slots are its free slots attached to the host first, so its
	// moves are the demand those cannot cover.
	win, bestMoves, bestTier := -1, 0, 0
	for d, free := range x.drawerFree {
		if free == 0 || free < r.GPUs {
			continue
		}
		slots := v.Slots[x.drawerStart[d]:x.drawerStart[d+1]]
		attached := 0
		for _, s := range slots {
			if s.Free && s.Host == host {
				attached++
			}
		}
		moves := r.GPUs - min(r.GPUs, attached)
		tier := distTier(slots[0].Chassis, slots[0].Pod, hc, hp)
		if win == -1 || moves < bestMoves || (moves == bestMoves && tier < bestTier) {
			win, bestMoves, bestTier = d, moves, tier
			if moves == 0 && tier == 0 {
				break // nothing scores lower
			}
		}
	}
	if win != -1 {
		sc := v.scratch
		cands, best := sc.cands[:0], sc.best[:0]
		for _, s := range v.Slots[x.drawerStart[win]:x.drawerStart[win+1]] {
			if s.Free {
				cands = append(cands, s)
			}
		}
		sortSlotsByRank(cands, host)
		for _, c := range cands[:r.GPUs] {
			best = append(best, c.Index)
		}
		sc.cands, sc.best = cands, best
		return host, best, true
	}
	// No drawer fits alone: span drawers, taking free slots in (attach
	// rank, distance tier, index) order to minimize moves, then distance.
	// Drawers ascend in slot order, so visiting each (rank, tier) class
	// drawer by drawer yields its slots in index order.
	picks := v.pickBuf(r.GPUs)
	for rank := 0; rank < 3; rank++ {
		for tier := 0; tier < 3; tier++ {
			for d, free := range x.drawerFree {
				if free == 0 {
					continue
				}
				slots := v.Slots[x.drawerStart[d]:x.drawerStart[d+1]]
				if distTier(slots[0].Chassis, slots[0].Pod, hc, hp) != tier {
					continue
				}
				for _, s := range slots {
					if s.Free && attachRank(s, host) == rank {
						picks = append(picks, s.Index)
						if len(picks) == r.GPUs {
							return host, picks, true
						}
					}
				}
			}
		}
	}
	return host, picks, true
}

// BandwidthAware spreads jobs across hosts by load and a job's GPUs across
// drawers by active-device count, splitting peer traffic over both drawer
// switches instead of saturating one — the opposite bet to DrawerLocal,
// trading switch locality for aggregate link bandwidth.
type BandwidthAware struct{}

// Name implements Policy.
func (BandwidthAware) Name() string { return "bandwidth" }

// Place implements Policy.
//
//perf:hot
func (BandwidthAware) Place(v View, r Request) (int, []int, bool) {
	x := v.idx
	if x.free < r.GPUs {
		return 0, nil, false
	}
	host := leastLoadedHost(v)
	if host == -1 {
		return 0, nil, false
	}
	// Per-drawer load: devices currently assigned to any job, or down.
	// taken marks slots already picked this placement, a bitset standing in
	// for the old map.
	drawers := len(x.drawerFree)
	sc := v.scratch
	if cap(sc.load) < drawers {
		sc.load = make([]int, drawers)
	}
	load := sc.load[:drawers]
	if cap(sc.taken) < len(v.Slots) {
		sc.taken = make([]bool, len(v.Slots))
	}
	taken := sc.taken[:len(v.Slots)]
	for i := range taken {
		taken[i] = false
	}
	for d := range load {
		load[d] = x.drawerStart[d+1] - x.drawerStart[d] - x.drawerFree[d]
	}
	hc, hp := v.HostChassis[host], v.HostPod[host]
	picks := v.pickBuf(r.GPUs)
	for len(picks) < r.GPUs {
		// Closest, then least-loaded drawer that still has a free, untaken
		// slot: spreading across drawer switches is only a bandwidth win
		// while the slots stay under the host's leaf — crossing the
		// oversubscribed spine costs more than sharing a switch. In the
		// degenerate shape every drawer is tier 0 and load alone decides,
		// exactly as before.
		bestDrawer, bestSlot, bestTier := -1, -1, 0
		for d := 0; d < drawers; d++ {
			tier := distTier(v.drawerChassis(d), v.drawerPod(d), hc, hp)
			if bestDrawer != -1 {
				if tier > bestTier || (tier == bestTier && load[d] >= load[bestDrawer]) {
					continue
				}
			}
			if x.drawerFree[d] == 0 {
				continue
			}
			slot := -1
			bestRank := 0
			for _, s := range v.Slots[x.drawerStart[d]:x.drawerStart[d+1]] {
				if !s.Free || taken[s.Index] {
					continue
				}
				if rank := attachRank(s, host); slot == -1 || rank < bestRank {
					slot, bestRank = s.Index, rank
				}
			}
			if slot != -1 {
				bestDrawer, bestSlot, bestTier = d, slot, tier
			}
		}
		picks = append(picks, bestSlot)
		taken[bestSlot] = true
		load[bestDrawer]++
	}
	sortInts(picks)
	return host, picks, true
}

// Static is the paper-world baseline: GPUs are partitioned per host up
// front (cluster.FleetOptions.Preattach) and a job may only run on its
// submitting tenant's share. It never recomposes — and it strands capacity
// whenever one tenant's queue bursts while another's share sits idle,
// which is exactly what the S1 experiment quantifies.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Place implements Policy.
//
//perf:hot
func (Static) Place(v View, r Request) (int, []int, bool) {
	if !v.HostUp[r.Tenant] {
		return 0, nil, false // the tenant waits out its host's crash
	}
	picks := v.pickBuf(r.GPUs)
	for _, s := range v.Slots {
		// The tenant's share: slots attached to it, plus detached slots it
		// owned at compose time (a repaired device or re-plugged drawer
		// returns detached; the next placement restores the partition).
		if s.Free && (s.Host == r.Tenant || (s.Host == -1 && s.Config == r.Tenant)) {
			picks = append(picks, s.Index)
			if len(picks) == r.GPUs {
				return r.Tenant, picks, true
			}
		}
	}
	return 0, nil, false
}
