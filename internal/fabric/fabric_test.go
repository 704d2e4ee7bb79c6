package fabric

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// line builds a -- b -- c with 10 GB/s links, 1µs each.
func line(t *testing.T) (*sim.Env, *Network, NodeID, NodeID, NodeID) {
	t.Helper()
	env := sim.NewEnv()
	n := NewNetwork(env)
	a := n.AddNode("a", KindGPU)
	b := n.AddNode("b", KindSwitch)
	c := n.AddNode("c", KindGPU)
	n.ConnectSym(a, b, units.GBps(10), time.Microsecond, "PCI-e 4.0")
	n.ConnectSym(b, c, units.GBps(10), time.Microsecond, "PCI-e 4.0")
	return env, n, a, b, c
}

func TestSingleTransferTime(t *testing.T) {
	env, n, a, _, c := line(t)
	var took time.Duration
	env.Go("x", func(p *sim.Proc) {
		start := p.Now()
		if err := n.Transfer(p, a, c, 10*units.GB); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 GiB at 10 GB/s ≈ 1.0737s, plus 2µs path latency.
	want := time.Duration(float64(10*units.GB) / 10e9 * float64(time.Second))
	if diff := (took - want - 2*time.Microsecond); diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("took %v, want ≈%v", took, want)
	}
}

func TestFairSharingHalvesRate(t *testing.T) {
	env, n, a, _, c := line(t)
	var t1, t2 time.Duration
	env.Go("f1", func(p *sim.Proc) {
		if err := n.Transfer(p, a, c, 10*units.GB); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	env.Go("f2", func(p *sim.Proc) {
		if err := n.Transfer(p, a, c, 10*units.GB); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two equal flows sharing a 10 GB/s path: both finish at ~2× the solo
	// time.
	want := time.Duration(2 * float64(10*units.GB) / 10e9 * float64(time.Second))
	for _, got := range []time.Duration{t1, t2} {
		if diff := got - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
			t.Fatalf("finish at %v, want ≈%v", got, want)
		}
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	env, n, a, _, c := line(t)
	var t1, t2 time.Duration
	env.Go("f1", func(p *sim.Proc) {
		_ = n.Transfer(p, a, c, 10*units.GB)
		t1 = p.Now()
	})
	env.Go("f2", func(p *sim.Proc) {
		_ = n.Transfer(p, c, a, 10*units.GB)
		t2 = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(10*units.GB) / 10e9 * float64(time.Second))
	for _, got := range []time.Duration{t1, t2} {
		if diff := got - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
			t.Fatalf("finish at %v, want ≈%v (full duplex)", got, want)
		}
	}
}

func TestMaxMinUnevenBottleneck(t *testing.T) {
	// a --10--> b; c --10--> b; b --10--> d.
	// Flow1 a→d and flow2 c→d share b→d: 5 each.
	// Flow3 a→b only: gets the a→b residual (10-5 = 5)... then max-min
	// gives it the leftover: flow1 frozen at 5, flow3 gets 5.
	env := sim.NewEnv()
	n := NewNetwork(env)
	a := n.AddNode("a", KindGPU)
	b := n.AddNode("b", KindSwitch)
	c := n.AddNode("c", KindGPU)
	d := n.AddNode("d", KindGPU)
	n.ConnectSym(a, b, units.GBps(10), 0, "x")
	n.ConnectSym(c, b, units.GBps(10), 0, "x")
	n.ConnectSym(b, d, units.GBps(10), 0, "x")

	env.Go("setup", func(p *sim.Proc) {
		f1, _ := n.StartFlow(a, d, units.GB)
		f2, _ := n.StartFlow(c, d, units.GB)
		f3, _ := n.StartFlow(a, b, units.GB)
		if got := f1.Rate().GB(); math.Abs(got-5) > 0.01 {
			t.Errorf("f1 rate %v, want 5", got)
		}
		if got := f2.Rate().GB(); math.Abs(got-5) > 0.01 {
			t.Errorf("f2 rate %v, want 5", got)
		}
		if got := f3.Rate().GB(); math.Abs(got-5) > 0.01 {
			t.Errorf("f3 rate %v, want 5", got)
		}
		f1.Done().Wait(p)
		f2.Done().Wait(p)
		f3.Done().Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRoutePrefersLowLatencyDirectLink(t *testing.T) {
	// GPU pair with both a direct NVLink and a 2-hop PCIe path must route
	// over NVLink.
	env := sim.NewEnv()
	n := NewNetwork(env)
	g0 := n.AddNode("gpu0", KindGPU)
	g1 := n.AddNode("gpu1", KindGPU)
	sw := n.AddNode("sw", KindSwitch)
	n.ConnectSym(g0, sw, units.GBps(12), 700*time.Nanosecond, "PCI-e 4.0")
	n.ConnectSym(g1, sw, units.GBps(12), 700*time.Nanosecond, "PCI-e 4.0")
	n.ConnectSym(g0, g1, units.GBps(36), 600*time.Nanosecond, "NVLink")
	proto, err := n.PathProtocol(g0, g1)
	if err != nil {
		t.Fatal(err)
	}
	if proto != "NVLink" {
		t.Fatalf("protocol = %q, want NVLink", proto)
	}
	lat, _ := n.PathLatency(g0, g1)
	if lat != 600*time.Nanosecond {
		t.Fatalf("latency = %v, want 600ns", lat)
	}
}

func TestNoPathError(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env)
	a := n.AddNode("a", KindGPU)
	b := n.AddNode("b", KindGPU)
	if _, err := n.Route(a, b); err == nil {
		t.Fatal("expected unreachable error")
	}
}

func TestLinkCountersMatchTransferredBytes(t *testing.T) {
	env, n, a, _, c := line(t)
	env.Go("x", func(p *sim.Proc) {
		_ = n.Transfer(p, a, c, 3*units.GB)
		_ = n.Transfer(p, c, a, units.GB)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ab, ba := n.LinkTrafficSnapshot(0)
	if ab != 3*units.GB {
		t.Fatalf("a→b bytes = %v, want 3GB", ab)
	}
	if ba != units.GB {
		t.Fatalf("b→a bytes = %v, want 1GB", ba)
	}
}

func TestParallelTransferBarrier(t *testing.T) {
	env, n, a, _, c := line(t)
	var took time.Duration
	env.Go("x", func(p *sim.Proc) {
		start := p.Now()
		err := n.ParallelTransfer(p, []TransferSpec{
			{Src: a, Dst: c, Size: 5 * units.GB},
			{Src: a, Dst: c, Size: 5 * units.GB},
		})
		if err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(10*units.GB) / 10e9 * float64(time.Second))
	if diff := took - want; diff < -2*time.Millisecond || diff > 2*time.Millisecond {
		t.Fatalf("took %v, want ≈%v", took, want)
	}
}

// TestMaxMinPropertyInvariants checks, over random star topologies and flow
// sets, the three defining properties of the allocator: non-negative rates,
// no directed link over capacity, and work conservation (every flow is
// bottlenecked by at least one saturated link on its path).
func TestMaxMinPropertyInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv()
		n := NewNetwork(env)
		hub := n.AddNode("hub", KindSwitch)
		nLeaf := 2 + rng.Intn(6)
		leaves := make([]NodeID, nLeaf)
		caps := make([]float64, nLeaf)
		for i := range leaves {
			caps[i] = 1e9 * (1 + rng.Float64()*20)
			leaves[i] = n.AddNode("leaf", KindGPU)
			n.ConnectSym(leaves[i], hub, units.BytesPerSec(caps[i]), 0, "x")
		}
		ok := true
		env.Go("flows", func(p *sim.Proc) {
			nf := 1 + rng.Intn(8)
			flows := make([]*Flow, 0, nf)
			for i := 0; i < nf; i++ {
				s := rng.Intn(nLeaf)
				d := rng.Intn(nLeaf)
				if s == d {
					d = (d + 1) % nLeaf
				}
				f, err := n.StartFlow(leaves[s], leaves[d], 100*units.GB)
				if err != nil {
					t.Error(err)
					ok = false
					return
				}
				flows = append(flows, f)
			}
			// Inspect allocation of the final recompute (reading rate
			// fields directly, so run any pending deferred sweep first —
			// the public readers do this via the same call).
			n.ensureAllocated()
			use := map[dir]float64{}
			for _, f := range flows {
				if f.rate < 0 {
					ok = false
				}
				for _, d := range f.path {
					use[d] += f.rate
				}
			}
			for d, u := range use {
				l := n.Link(d.link())
				cap := float64(l.CapAtoB)
				if d.side() == 1 {
					cap = float64(l.CapBtoA)
				}
				if u > cap*(1+1e-9) {
					ok = false
				}
			}
			// Work conservation: each flow touches a saturated link.
			for _, f := range flows {
				saturated := false
				for _, d := range f.path {
					cap := n.Link(d.link()).capacity(d.side())
					if use[d] >= cap*(1-1e-9) {
						saturated = true
					}
				}
				if !saturated {
					ok = false
				}
			}
		})
		// Don't run to completion; the allocation check above is the test.
		_ = env.RunUntil(time.Millisecond)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSlowFlowDoesNotSpin: a transfer whose completion lies ~3,000 years
// out (100 GB capped at 1 B/s) must arm its timer at the end of
// representable time, not wrap negative and spin the engine at t=0.
func TestSlowFlowDoesNotSpin(t *testing.T) {
	env, n, a, b, _ := line(t)
	recomputes := 0
	n.OnRecompute(func() {
		if recomputes++; recomputes > 100 {
			panic("fabric: completion timer re-fires at one instant")
		}
	})
	env.Go("x", func(p *sim.Proc) { _ = n.TransferLimited(p, a, b, 100*units.GB, 1) })
	if err := env.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	if now := env.Now(); now != time.Hour {
		t.Fatalf("RunUntil returned at %v, want 1h", now)
	}
}

func TestDurationFromSecondsSaturates(t *testing.T) {
	for _, tc := range []struct {
		s    float64
		now  sim.Time
		want time.Duration
	}{
		{0, 0, time.Nanosecond},
		{-1, time.Hour, time.Nanosecond},
		{1.5, time.Hour, 1500 * time.Millisecond},
		{1e11, 0, math.MaxInt64},
		{1e11, time.Hour, math.MaxInt64 - time.Hour},
		{math.MaxFloat64, time.Hour, math.MaxInt64 - time.Hour},
	} {
		if got := durationFromSeconds(tc.s, tc.now); got != tc.want {
			t.Errorf("durationFromSeconds(%g, %v) = %v, want %v", tc.s, tc.now, got, tc.want)
		}
	}
}

func TestZeroByteTransferTakesLatencyOnly(t *testing.T) {
	env, n, a, _, c := line(t)
	var took time.Duration
	env.Go("x", func(p *sim.Proc) {
		start := p.Now()
		_ = n.Transfer(p, a, c, 0)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 2*time.Microsecond {
		t.Fatalf("took %v, want 2µs", took)
	}
}

// TestHandleRangeGuard checks the limits AddNode and Connect enforce
// through checkHandleRange: the limits are the most nodes and links an
// int32 node ID and an int32 direction handle can name, a graph one short
// of a limit may grow, and a full one panics with a message naming it.
func TestHandleRangeGuard(t *testing.T) {
	if maxNodes-1 != math.MaxInt32 || 2*(maxLinks-1)+1 != math.MaxInt32 {
		t.Fatalf("limits %d nodes and %d links do not match int32 handles", maxNodes, maxLinks)
	}
	for _, tc := range []struct {
		what  string
		limit int64
	}{{"nodes", maxNodes}, {"links", maxLinks}} {
		checkHandleRange(tc.what, tc.limit-1, tc.limit)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, strconv.FormatInt(tc.limit, 10)+" "+tc.what) {
					t.Errorf("a full graph of %s panicked with %q, want the limit %d named", tc.what, msg, tc.limit)
				}
			}()
			checkHandleRange(tc.what, tc.limit, tc.limit)
		}()
	}
}

// TestRouteCacheStartsOverWhenBlocksRunOut fills the route cache's block
// table: the next new route must empty the index and start a fresh block,
// route correctly, and leave a path handed out before untouched.
func TestRouteCacheStartsOverWhenBlocksRunOut(t *testing.T) {
	_, n, a, _, c := line(t)
	held, err := n.Route(a, c)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(held)
	n.hopBlocks = append(n.hopBlocks, make([][]dir, maxHopBlocks-len(n.hopBlocks))...)
	back, err := n.Route(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.hopBlocks) != 1 || len(n.routeEntries) != 2 {
		t.Fatalf("after the table filled: %d blocks, %d entries; want 1 and the sentinel plus 1", len(n.hopBlocks), len(n.routeEntries))
	}
	if len(back) != 2 || back[0] != want[1]^1 || back[1] != want[0]^1 {
		t.Fatalf("c→a routed %v, want the reverse of a→c's %v", back, want)
	}
	again, err := n.Route(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(held, want) || !slices.Equal(again, want) {
		t.Fatalf("a→c held %v, routed again %v; want %v", held, again, want)
	}
}
