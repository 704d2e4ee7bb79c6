// The waterfill oracle: after every production recompute, the whole active
// set is re-solved from scratch by the whole-set progressive filling the
// allocator ran before it became component-local, and every flow's rate
// must match bit for bit. A recompute that misses a component a change
// reached leaves stale rates there, and the diff catches it.
package fabric_test

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/orchestrator"
	"composable/internal/perfbench"
	"composable/internal/sim"
	"composable/internal/units"
)

// referenceRates is the whole-set waterfill: every constraint is refilled,
// and each round freezes the flows of the first constraint (in scan order)
// with the smallest fair share, until every flow is frozen.
func referenceRates(w fabric.Waterfill) []float64 {
	residual := slices.Clone(w.Caps)
	unfrozen := make([]int, len(w.Caps))
	for c, fs := range w.ConFlows {
		unfrozen[c] = len(fs)
	}
	rates := make([]float64, len(w.Rates))
	frozen := make([]bool, len(w.Rates))
	for left := len(rates); left > 0; {
		best, bestShare := -1, math.Inf(1)
		for c := range residual {
			if unfrozen[c] == 0 {
				continue
			}
			if share := residual[c] / float64(unfrozen[c]); share < bestShare {
				best, bestShare = c, share
			}
		}
		if best < 0 {
			break
		}
		for _, f := range w.ConFlows[best] {
			if frozen[f] {
				continue
			}
			frozen[f], rates[f] = true, bestShare
			left--
			for _, c := range w.FlowCons[f] {
				residual[c] -= bestShare
				if residual[c] < 0 {
					residual[c] = 0
				}
				unfrozen[c]--
			}
		}
	}
	return rates
}

// waterfillOracle diffs every recompute of one network against
// referenceRates. It reports the first mismatch only: later recomputes
// build on the wrong rates and would repeat it.
type waterfillOracle struct {
	checks int // recomputes diffed
	rated  int // flow rates diffed, summed over checks
	failed bool
}

func watchWaterfill(t *testing.T, net *fabric.Network) *waterfillOracle {
	t.Helper()
	o := &waterfillOracle{}
	net.OnRecompute(func() {
		w := net.Waterfill()
		want := referenceRates(w)
		o.checks++
		o.rated += len(w.Rates)
		for i, got := range w.Rates {
			if got != want[i] && !o.failed {
				o.failed = true
				t.Errorf("recompute %d at %v: flow %d of %d has rate %v, whole-set solve gives %v",
					o.checks, net.Env().Now(), i, len(w.Rates), got, want[i])
			}
		}
	})
	return o
}

// churn drives a random mix of allocator changes over net for ops steps,
// at instants 0-2 ms apart so that some changes share an instant and are
// solved together: single and capped starts (including a path-less capped
// flow), blocking transfers whose completions recycle their flows,
// startLegs batches, and degrade/repair of links that carry traffic both
// ways.
func churn(p *sim.Proc, rng *rand.Rand, net *fabric.Network, ops int) {
	nodes := fabric.NodeID(len(net.Nodes()))
	node := func() fabric.NodeID { return fabric.NodeID(rng.Int63n(int64(nodes))) }
	size := func() units.Bytes { return units.Bytes(1+rng.Intn(64)) * units.MB }
	limit := func() units.BytesPerSec { return units.GBps(0.05 + 2*rng.Float64()) }
	var duplex []*fabric.Link
	healthy := map[fabric.LinkID][2]units.BytesPerSec{}
	for _, l := range net.Links() {
		if l.CapAtoB > 0 && l.CapBtoA > 0 {
			duplex = append(duplex, l)
			healthy[l.ID] = [2]units.BytesPerSec{l.CapAtoB, l.CapBtoA}
		}
	}
	env := net.Env()
	for op := 0; op < ops; op++ {
		p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		switch rng.Intn(7) {
		case 0:
			_, _ = net.StartFlow(node(), node(), size())
		case 1:
			_, _ = net.StartFlowLimited(node(), node(), size(), limit())
		case 2:
			a := node()
			_, _ = net.StartFlowLimited(a, a, size(), limit())
		case 3:
			src, dst, sz := node(), node(), size()
			env.Go("transfer", func(p *sim.Proc) { _ = net.Transfer(p, src, dst, sz) })
		case 4:
			legs := make([]fabric.TransferSpec, 1+rng.Intn(4))
			for i := range legs {
				legs[i] = fabric.TransferSpec{Src: node(), Dst: node(), Size: size()}
			}
			env.Go("legs", func(p *sim.Proc) { _ = net.ParallelTransfer(p, legs) })
		default:
			if len(duplex) == 0 {
				continue
			}
			l := duplex[rng.Intn(len(duplex))]
			caps := healthy[l.ID]
			if rng.Intn(2) == 0 {
				f := units.BytesPerSec(0.05 + 0.9*rng.Float64())
				caps = [2]units.BytesPerSec{caps[0] * f, caps[1] * f}
			}
			net.SetLinkCapacity(l.ID, caps[0], caps[1])
		}
	}
}

// TestWaterfillOracleRandomGraphs runs the churn on seeded graphs of up to
// four components, with parallel and one-way links, so that one recompute
// often reaches some components and not others.
func TestWaterfillOracleRandomGraphs(t *testing.T) {
	checks, rated, solved := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomNetwork(rng, 4+rng.Intn(30), 4)
		o := watchWaterfill(t, net)
		net.Env().Go("churn", func(p *sim.Proc) { churn(p, rng, net, 300) })
		if err := net.Env().Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if o.failed {
			t.Fatalf("seed %d: waterfill differs from the whole-set solve", seed)
		}
		flows, _, _ := net.SolveWork()
		checks, rated, solved = checks+o.checks, rated+o.rated, solved+flows
	}
	t.Logf("%d recomputes checked; %d of %d flow rates re-solved", checks, solved, rated)
	if checks < 1000 || solved >= rated {
		t.Fatalf("oracle too weak: %d recomputes checked, %d of %d flow rates re-solved; want many recomputes, some of them partial",
			checks, solved, rated)
	}
}

// TestWaterfillOraclePodSteady diffs every recompute of a pod-steady-shaped
// run: 16 overlapping jobs of 4-16 GPUs, 2 epochs × 4 iterations each,
// arriving ~10 ms apart on the 1024-GPU pod fleet.
func TestWaterfillOraclePodSteady(t *testing.T) {
	env := sim.NewEnv()
	fleet, err := cluster.ComposeFleet(env, perfbench.PodFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := watchWaterfill(t, fleet.Net)
	rng := rand.New(rand.NewSource(1))
	models := [...]string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]orchestrator.JobSpec, 16)
	for i := range jobs {
		jobs[i] = orchestrator.JobSpec{
			Arrival:  time.Duration(rng.Int63n(int64(160 * time.Millisecond))),
			Tenant:   rng.Intn(len(fleet.Hosts)),
			GPUs:     4 + 4*(i%4),
			Workload: models[i%3],
			Epochs:   2, ItersPerEpoch: 4,
		}
	}
	slices.SortFunc(jobs, func(a, b orchestrator.JobSpec) int { return int(a.Arrival - b.Arrival) })
	res, err := orchestrator.Run(fleet, jobs, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedJobs != 0 {
		t.Fatalf("%d jobs failed", res.FailedJobs)
	}
	if o.failed {
		t.Fatal("waterfill differs from the whole-set solve")
	}
	flows, _, _ := fleet.Net.SolveWork()
	t.Logf("%d recomputes checked; %d of %d flow rates re-solved", o.checks, flows, o.rated)
	if o.checks < 1000 || flows >= o.rated {
		t.Fatalf("oracle too weak: %d recomputes checked, %d of %d flow rates re-solved", o.checks, flows, o.rated)
	}
}

// disjointRings builds k rings of m nodes each, with no link between
// rings, and returns each ring's legs: node j sends to node j+2, routed
// over j+1, so neighbouring legs share a link direction and each ring's
// legs form one component of the allocator's flow↔constraint graph.
func disjointRings(env *sim.Env, k, m int, size units.Bytes) (*fabric.Network, [][]fabric.TransferSpec) {
	net := fabric.NewNetwork(env)
	rings := make([][]fabric.TransferSpec, k)
	for r := range rings {
		ids := make([]fabric.NodeID, m)
		for j := range ids {
			ids[j] = net.AddNode("r"+strconv.Itoa(r)+"n"+strconv.Itoa(j), fabric.KindGPU)
		}
		for j := range ids {
			net.ConnectSym(ids[j], ids[(j+1)%m], units.GBps(16), time.Microsecond, "pcie")
		}
		for j := range ids {
			rings[r] = append(rings[r], fabric.TransferSpec{Src: ids[j], Dst: ids[(j+2)%m], Size: size})
		}
	}
	return net, rings
}

// startSteady starts every leg of rings as a flow far too large to finish
// while a test or benchmark watches.
func startSteady(tb testing.TB, net *fabric.Network, rings [][]fabric.TransferSpec) {
	for _, ring := range rings {
		for _, x := range ring {
			if _, err := net.StartFlow(x.Src, x.Dst, 1<<50); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestRecomputeSolvesOnlyReachedComponent churns one of two disjoint rings
// while the other carries steady flows: every recompute must re-solve the
// churning ring's legs only.
func TestRecomputeSolvesOnlyReachedComponent(t *testing.T) {
	const m, rounds = 6, 10
	env := sim.NewEnv()
	net, rings := disjointRings(env, 2, m, units.MB)
	startSteady(t, net, rings[:1])
	var flows, solveRounds int
	env.Go("churn", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		before, beforeRounds, _ := net.SolveWork()
		for i := 0; i < rounds; i++ {
			if err := net.ParallelTransfer(p, rings[1]); err != nil {
				t.Error(err)
				return
			}
		}
		after, afterRounds, _ := net.SolveWork()
		flows, solveRounds = after-before, afterRounds-beforeRounds
	})
	if err := env.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	// Each round's start re-solves its m legs; its completion removes all
	// of them at once and leaves nothing to re-solve. A whole-set solve
	// would also re-solve the m steady flows every time.
	if flows != rounds*m {
		t.Errorf("churn re-solved %d flows, want %d (%d rounds × %d legs)", flows, rounds*m, rounds, m)
	}
	if solveRounds < rounds || solveRounds > rounds*m {
		t.Errorf("churn ran %d waterfill rounds, want %d to %d", solveRounds, rounds, rounds*m)
	}
}

// tieCaps are decimal link capacities with no exact binary form: subtracting
// one fair share from such a residual often lands within an ulp of the share
// instead of on it, which is where a batched freeze of tied constraints can
// part ways with one-winner-per-scan filling.
var tieCaps = [...]units.BytesPerSec{units.GBps(0.1), units.GBps(0.3), units.GBps(0.7), units.GBps(1)}

// tieNetwork builds 2-5 rings of 3-8 nodes, each ring's links sharing one
// capacity from tieCaps in both directions, with node 0 of every ring cabled
// to a common hub, so that traffic within a ring ties and traffic across the
// hub couples the rings. It returns the network and each ring's nodes.
func tieNetwork(rng *rand.Rand) (*fabric.Network, [][]fabric.NodeID) {
	net := fabric.NewNetwork(sim.NewEnv())
	hub := net.AddNode("hub", fabric.KindSwitch)
	rings := make([][]fabric.NodeID, 2+rng.Intn(4))
	for r := range rings {
		c := tieCaps[rng.Intn(len(tieCaps))]
		ids := make([]fabric.NodeID, 3+rng.Intn(6))
		for j := range ids {
			ids[j] = net.AddNode("r"+strconv.Itoa(r)+"n"+strconv.Itoa(j), fabric.KindGPU)
		}
		for j := range ids {
			net.ConnectSym(ids[j], ids[(j+1)%len(ids)], c, time.Microsecond, "x")
		}
		net.ConnectSym(hub, ids[0], tieCaps[rng.Intn(len(tieCaps))], time.Microsecond, "x")
		rings[r] = ids
	}
	return net, rings
}

// tieChurn drives tie-heavy traffic over a tieNetwork for ops steps, at
// instants 0-2 ms apart: both directions of a ring loaded at once with
// equal-sized legs, like a collective's two counter-rotating channels;
// equal-sized parallel batches across the hub; flows capped at exactly
// their ring link's 1/k share; and links reset to another tieCaps value.
func tieChurn(p *sim.Proc, rng *rand.Rand, net *fabric.Network, rings [][]fabric.NodeID, ops int) {
	env := net.Env()
	ring := func() []fabric.NodeID { return rings[rng.Intn(len(rings))] }
	size := func() units.Bytes { return units.Bytes(1+rng.Intn(4)) * units.MB }
	for op := 0; op < ops; op++ {
		p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		switch rng.Intn(5) {
		case 0, 1:
			ids, sz, h := ring(), size(), 1+rng.Intn(2)
			legs := make([]fabric.TransferSpec, 0, 2*len(ids))
			for j, id := range ids {
				legs = append(legs,
					fabric.TransferSpec{Src: id, Dst: ids[(j+h)%len(ids)], Size: sz},
					fabric.TransferSpec{Src: id, Dst: ids[(j+len(ids)-h)%len(ids)], Size: sz})
			}
			env.Go("rings", func(p *sim.Proc) { _ = net.ParallelTransfer(p, legs) })
		case 2:
			legs, sz := make([]fabric.TransferSpec, 2+rng.Intn(6)), size()
			for i := range legs {
				src, dst := ring(), ring()
				legs[i] = fabric.TransferSpec{Src: src[rng.Intn(len(src))], Dst: dst[rng.Intn(len(dst))], Size: sz}
			}
			env.Go("legs", func(p *sim.Proc) { _ = net.ParallelTransfer(p, legs) })
		case 3:
			ids := ring()
			j := rng.Intn(len(ids))
			l, _ := net.RouteHops(ids[j], ids[(j+1)%len(ids)])
			share := net.Link(l[0].Link).CapAtoB / units.BytesPerSec(1+rng.Intn(3))
			_, _ = net.StartFlowLimited(ids[j], ids[(j+1)%len(ids)], size(), share)
		default:
			l := net.Links()[rng.Intn(len(net.Links()))]
			c := tieCaps[rng.Intn(len(tieCaps))]
			net.SetLinkCapacity(l.ID, c, c)
		}
	}
}

// starStops are hand-built systems on a star: every spoke is cabled to the
// hub with one symmetric link, and each leg's path crosses its source
// spoke's link inward and its destination spoke's link outward ("c" is the
// hub itself), so each constraint is one spoke direction. All legs start
// at one instant, and their order fixes the scan order of the constraints.
// Each system steers the first tied constraint's freeze into one reason a
// tie batch must stop, with rates that differ from the reference if the
// batch runs on.
var starStops = []struct {
	name string
	caps map[string]units.BytesPerSec
	legs string // "src>dst" in start order; "src>dst*n" repeats a leg n times
	stop int    // the reason the batch must stop, indexing EarlyStops
}{
	{
		// Three 0.7 GB/s links of three flows tie at 7e8/3, scanned a, d,
		// b. Freezing a's flows, one of them also on b, leaves b's share
		// an ulp below the level, so b wins next — not the tie d, which
		// shares a flow with b.
		name: "tie falls below the level",
		caps: map[string]units.BytesPerSec{"a": units.GBps(0.7), "d": units.GBps(0.7), "b": units.GBps(0.7)},
		legs: "a>c d>c a>b d>b a>c d>c c>b",
		stop: fabric.StopBelow,
	},
	{
		// a and d (0.1 GB/s, three flows) tie at 1e8/3; b (0.7/3 GB/s,
		// seven flows) sits an ulp above it and is scanned between them.
		// Freezing a's flow a>b lands b's share on the level exactly, and
		// b precedes d in scan order.
		name: "constraint outside the tie list reaches the level",
		caps: map[string]units.BytesPerSec{"a": units.GBps(0.1), "b": units.GBps(0.7) / 3, "d": units.GBps(0.1)},
		legs: "a>b d>b a>c*2 d>c*2 c>b*5",
		stop: fabric.StopNewTie,
	},
	{
		// a and b (0.1 GB/s, three flows) tie at 1e8/3. Freezing a's flows
		// leaves b's two others a share an ulp above the level.
		name: "next tie leaves the level",
		caps: map[string]units.BytesPerSec{"a": units.GBps(0.1), "b": units.GBps(0.1)},
		legs: "a>c a>b a>c c>b*2",
		stop: fabric.StopTieMoved,
	},
	{
		// Four 2.6 GB/s links of twelve flows tie, scanned a, b, d, e.
		// Freezing a's flows lifts b off the level; freezing d's brings it
		// back, ahead of e in scan order. A batch that skipped b instead
		// of stopping would freeze e first.
		name: "skipped tie returns to the level",
		caps: map[string]units.BytesPerSec{"a": units.GBps(2.6), "b": units.GBps(2.6), "d": units.GBps(2.6), "e": units.GBps(2.6)},
		legs: "a>c c>b d>c e>c a>b*3 d>b*3 e>b a>c*8 d>c*8 e>c*10 c>b*4",
		stop: fabric.StopTieMoved,
	},
}

// TestWaterfillOracleTies diffs every recompute of tie-heavy systems
// against the one-winner-per-scan reference: the starStops systems, each of
// which must stop its tie batch for its stated reason, and seeded tieChurn
// runs. Every early-stop reason must fire: a batch that ran past one would
// freeze a tie the reference does not pick next, at a share it does not
// give it.
func TestWaterfillOracleTies(t *testing.T) {
	var stops [3]int
	add := func(got [3]int) {
		for i := range stops {
			stops[i] += got[i]
		}
	}
	for _, tc := range starStops {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env)
		hub := net.AddNode("c", fabric.KindSwitch)
		node := map[string]fabric.NodeID{"c": hub}
		for _, name := range []string{"a", "b", "d", "e"} {
			if c, ok := tc.caps[name]; ok {
				node[name] = net.AddNode(name, fabric.KindGPU)
				net.ConnectSym(node[name], hub, c, time.Microsecond, "x")
			}
		}
		var legs []fabric.TransferSpec
		for _, leg := range strings.Fields(tc.legs) {
			n := 1
			if i := strings.IndexByte(leg, '*'); i >= 0 {
				n, _ = strconv.Atoi(leg[i+1:])
				leg = leg[:i]
			}
			for ; n > 0; n-- {
				legs = append(legs, fabric.TransferSpec{Src: node[leg[:1]], Dst: node[leg[2:]], Size: units.MB})
			}
		}
		o := watchWaterfill(t, net)
		env.Go("legs", func(p *sim.Proc) { _ = net.ParallelTransfer(p, legs) })
		if err := env.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if o.failed {
			t.Fatalf("%s: waterfill differs from the whole-set solve", tc.name)
		}
		got := net.EarlyStops()
		if got[tc.stop] == 0 {
			t.Errorf("%s: tie batch never stopped for reason %d (stops below/newTie/tieMoved = %v)", tc.name, tc.stop, got)
		}
		add(got)
	}

	checks, rounds, passes := 0, 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, rings := tieNetwork(rng)
		o := watchWaterfill(t, net)
		net.Env().Go("churn", func(p *sim.Proc) { tieChurn(p, rng, net, rings, 100) })
		if err := net.Env().Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if o.failed {
			t.Fatalf("seed %d: waterfill differs from the whole-set solve", seed)
		}
		_, r, s := net.SolveWork()
		checks, rounds, passes = checks+o.checks, rounds+r, passes+s
		add(net.EarlyStops())
	}
	t.Logf("tie churn: %d recomputes checked, %d rounds in %d scans; tie batches stopped early (below/newTie/tieMoved, star systems included) %v",
		checks, rounds, passes, stops)
	if stops[0] == 0 || stops[1] == 0 || stops[2] == 0 {
		t.Fatalf("oracle too weak: stops below/newTie/tieMoved = %v; want every early-stop reason exercised", stops)
	}
	if passes >= rounds {
		t.Fatalf("%d scans for %d rounds: ties were not batched", passes, rounds)
	}
}

// TestTieLevelIsOneScan starts K disjoint rings at one instant, half of
// them on links of half the capacity: every link direction of a ring
// carries two legs, so the whole solve has two share levels, and it must
// take one scan for each, however many rings and legs tie at that level.
func TestTieLevelIsOneScan(t *testing.T) {
	const k, m = 8, 6
	env := sim.NewEnv()
	net, rings := disjointRings(env, k, m, units.MB)
	var legs []fabric.TransferSpec
	for r, ring := range rings {
		legs = append(legs, ring...)
		if r%2 == 1 {
			for _, l := range net.Links()[r*m : (r+1)*m] {
				net.SetLinkCapacity(l.ID, l.CapAtoB/2, l.CapBtoA/2)
			}
		}
	}
	env.Go("start", func(p *sim.Proc) { _ = net.ParallelTransfer(p, legs) })
	if err := env.RunUntil(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	flows, rounds, passes := net.SolveWork()
	if flows != k*m {
		t.Fatalf("solved %d flows, want %d", flows, k*m)
	}
	// Each ring's first winner freezes two legs and each later one a
	// single leg, until the ring's last link has none left to freeze.
	if rounds != k*(m-1) {
		t.Errorf("ran %d rounds, want %d (%d rings × %d winners)", rounds, k*(m-1), k, m-1)
	}
	if passes != 2 {
		t.Errorf("solve took %d scans, want 2 (one per share level)", passes)
	}
}
