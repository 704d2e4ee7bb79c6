package collective

import (
	"math"
	"strconv"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/sim"
	"composable/internal/sim/simtest"
	"composable/internal/units"
)

// referenceRound is the ring channel's per-round spec path, kept as the
// reference for the prepared legs: every round rebuilds the N transfer
// specs and arms them through ArmParallelTransfer, which routes each leg,
// sums its latency and looks up its link constraints again.
type referenceRound struct {
	rc    *ringChannel
	specs []fabric.TransferSpec
	flows []*fabric.Flow
}

func (ref *referenceRound) step() {
	rc := ref.rc
	c := rc.c
	if len(ref.flows) > 0 {
		c.net.ReleaseFlows(&ref.flows)
	}
	n := len(c.ring)
	for rc.r < rc.rounds {
		rc.r++
		for i := 0; i < n; i++ {
			src := c.gpus[c.ring[i]].Node
			var dst fabric.NodeID
			if rc.reverse {
				dst = c.gpus[c.ring[(i+n-1)%n]].Node
			} else {
				dst = c.gpus[c.ring[(i+1)%n]].Node
			}
			ref.specs[i] = fabric.TransferSpec{Src: src, Dst: dst, Size: rc.chunk}
		}
		armed, err := c.net.ArmParallelTransfer(rc.sp, ref.specs, 1/c.eff-1, &ref.flows)
		if err != nil {
			panic(err)
		}
		if armed {
			return
		}
		c.net.ReleaseFlows(&ref.flows)
	}
	rc.wg.Done(c.env)
}

// useReferenceRounds rebinds c's ring channels, under their own names, to
// the reference path.
func useReferenceRounds(c *Communicator) {
	for ch, rc := range c.ringChans {
		ref := &referenceRound{rc: rc, specs: make([]fabric.TransferSpec, len(c.ring))}
		rc.sp = c.env.NewStepper("ring-ch"+strconv.Itoa(ch), ref.step)
	}
}

// legsRun is what one run of the oracle scenario leaves besides its event
// stream.
type legsRun struct {
	// flows holds, at each probe, every active flow's endpoints and the
	// bits of its rate, in active-set order.
	flows []uint64
	// bytes holds the bits of every link's exact counters at the end.
	bytes []uint64
	// midOp reports that both capacity changes hit the first all-reduce
	// while it ran; direct is the bytes the link added mid-run carried.
	midOp  bool
	direct float64
}

// legsScenario runs collectives on cfg with the given channel count:
//
//  1. a 64 MB all-reduce during which a single 8 MB flow starts over the
//     first ring leg's route and the first link of that route is degraded
//     to a quarter and later repaired;
//  2. a 24 MB reduce-scatter and a 24 MB all-gather (other chunk sizes);
//  3. after a direct link joins the first leg's endpoints (a graph change
//     that moves their route), a 16 MB all-reduce.
//
// With reference set the ring channels take the per-round spec path.
func legsScenario(env *sim.Env, cfg cluster.Config, channels int, reference bool, out *legsRun) error {
	*out = legsRun{}
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		return err
	}
	c, err := New(sys.Net, sys.GPUs)
	if err != nil {
		return err
	}
	c.SetChannels(channels)
	if reference {
		useReferenceRounds(c)
	}
	net := sys.Net
	a, b := sys.GPUs[c.ring[0]].Node, sys.GPUs[c.ring[1]].Node
	probe := func() {
		net.VisitFlows(func(f *fabric.Flow) {
			out.flows = append(out.flows, uint64(f.Src)<<32|uint64(f.Dst), math.Float64bits(float64(f.Rate())))
		})
	}
	all := func(start func(rank int) Handle) Handle {
		var done Handle
		for r := range sys.GPUs {
			done = start(r)
		}
		return done
	}
	var direct fabric.LinkID
	env.Go("driver", func(p *sim.Proc) {
		done := all(func(r int) Handle { return c.StartAllReduce(r, 64*units.MB) })
		p.Sleep(150 * time.Microsecond)
		probe()
		single, err := net.StartFlow(a, b, 8*units.MB)
		if err != nil {
			panic(err)
		}
		var l *fabric.Link
		for _, cand := range net.Links() {
			if single.Traverses(cand.ID) {
				l = cand
				break
			}
		}
		capAB, capBA := l.CapAtoB, l.CapBtoA
		net.SetLinkCapacity(l.ID, capAB/4, capBA/4)
		probe()
		p.Sleep(300 * time.Microsecond)
		probe()
		out.midOp = !fired(done)
		net.SetLinkCapacity(l.ID, capAB, capBA)
		probe()
		done.Wait(p)
		single.Done().Wait(p)
		net.ReleaseFlow(single)

		all(func(r int) Handle { return c.StartReduceScatter(r, 24*units.MB) }).Wait(p)
		all(func(r int) Handle { return c.StartAllGather(r, 24*units.MB) }).Wait(p)

		direct = net.ConnectSym(a, b, units.GBps(100), 100*time.Nanosecond, "direct")
		done = all(func(r int) Handle { return c.StartAllReduce(r, 16*units.MB) })
		p.Sleep(10 * time.Microsecond)
		probe()
		done.Wait(p)
	})
	if err := env.Run(); err != nil {
		return err
	}
	for _, l := range net.Links() {
		ab, ba := l.ExactBytes()
		out.bytes = append(out.bytes, math.Float64bits(ab), math.Float64bits(ba))
	}
	ab, ba := net.Link(direct).ExactBytes()
	out.direct = ab + ba
	return nil
}

// TestPreparedLegsMatchReferenceOracle pits the ring channels' prepared
// legs against the per-round spec path on the three GPU configurations
// with one, two and three channels: the event streams must match event
// for event, and the rates at every probe and every link's byte counters
// bit for bit.
func TestPreparedLegsMatchReferenceOracle(t *testing.T) {
	for _, cfg := range []cluster.Config{cluster.LocalGPUsConfig(), cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig()} {
		for channels := 1; channels <= 3; channels++ {
			t.Run(cfg.Name+"/"+strconv.Itoa(channels), func(t *testing.T) {
				var prepared, reference legsRun
				d, err := simtest.Compare(
					func(env *sim.Env) error { return legsScenario(env, cfg, channels, false, &prepared) },
					func(env *sim.Env) error { return legsScenario(env, cfg, channels, true, &reference) },
				)
				if err != nil {
					t.Fatalf("prepared legs vs per-round specs: %v", err)
				}
				if !prepared.midOp {
					t.Error("the degrade and repair did not both land inside the first all-reduce")
				}
				if prepared.direct == 0 {
					t.Error("the link added mid-run carried nothing: the graph change did not move the ring")
				}
				if i := firstDiff(prepared.flows, reference.flows); i >= 0 {
					t.Errorf("probed flows differ at word %d of %d/%d (endpoints, rate bits alternate)", i, len(prepared.flows), len(reference.flows))
				}
				if len(prepared.bytes) == 0 {
					t.Error("no link counters recorded")
				}
				if i := firstDiff(prepared.bytes, reference.bytes); i >= 0 {
					t.Errorf("link %d's %s byte counter differs", i/2, [2]string{"A→B", "B→A"}[i%2])
				}
				t.Logf("%d events, digest %#x", d.Count(), d.Sum())
			})
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestWarmAllReduceAllocatesNothing gates the ring channels' steady state:
// once the legs are prepared and the pools warm, an all-reduce allocates
// nothing.
func TestWarmAllReduceAllocatesNothing(t *testing.T) {
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	stop, ops := false, 0
	env.Go("driver", func(p *sim.Proc) {
		for !stop {
			comm.ExecAllReduce(p, 25*units.MB)
			ops++
		}
	})
	var horizon sim.Time
	step := func() {
		horizon += 10 * time.Millisecond
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // prepare the legs, warm the pools
	from := ops
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a warm all-reduce allocates %.1f objects per 10ms step, want 0", allocs)
	}
	if ops-from < 20 {
		t.Fatalf("only %d all-reduces measured", ops-from)
	}
	stop = true
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
