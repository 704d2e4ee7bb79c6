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
		flows, _ := net.SolveWork()
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
	flows, _ := fleet.Net.SolveWork()
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
		before, beforeRounds := net.SolveWork()
		for i := 0; i < rounds; i++ {
			if err := net.ParallelTransfer(p, rings[1]); err != nil {
				t.Error(err)
				return
			}
		}
		after, afterRounds := net.SolveWork()
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
