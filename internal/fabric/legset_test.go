package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// armRound arms one round of s from a Go process, parks until it
// completes and releases its flows.
func armRound(p *sim.Proc, s *LegSet, size units.Bytes) error {
	armed, err := s.Arm(p, size, 0)
	if err != nil {
		return err
	}
	if armed {
		p.Park()
	}
	s.Release()
	return nil
}

// TestLegSetFollowsConnect prepares a leg over a switch, then connects its
// endpoints directly: the next round must route over the new link, as a
// freshly routed transfer would.
func TestLegSetFollowsConnect(t *testing.T) {
	env := sim.NewEnv()
	n, gpus := star(env, []units.BytesPerSec{units.GBps(10), units.GBps(10)})
	s := n.NewLegSet(1)
	s.Add(gpus[0], gpus[1])
	var direct LinkID
	var paths [2]string
	env.Go("driver", func(p *sim.Proc) {
		for round := range paths {
			if round == 1 {
				direct = n.ConnectSym(gpus[0], gpus[1], units.GBps(10), 100*time.Nanosecond, "direct")
			}
			if err := armRound(p, s, units.MB); err != nil {
				t.Error(err)
				return
			}
			paths[round] = pathString(s.legs[0].path)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := n.Route(gpus[0], gpus[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0].link() != direct {
		t.Fatalf("route after Connect = %s, want the direct link %d", pathString(want), direct)
	}
	if paths[0] == paths[1] || paths[1] != pathString(want) {
		t.Fatalf("leg paths %q then %q, want %q after Connect", paths[0], paths[1], pathString(want))
	}
	if ab, _ := n.LinkTrafficSnapshot(direct); ab != units.MB {
		t.Fatalf("direct link carried %v, want the second round's %v", ab, units.MB)
	}
}

func pathString(path []dir) string {
	var b strings.Builder
	for _, d := range path {
		fmt.Fprintf(&b, "%d/%t ", d.link(), d.side() == 0)
	}
	return b.String()
}

// TestLegSetRoutingError arms a set whose middle leg is unreachable: the
// leg before it starts and runs to completion, the error is returned, and
// once the graph connects the missing node the next round starts all
// three.
func TestLegSetRoutingError(t *testing.T) {
	env := sim.NewEnv()
	n, gpus := star(env, []units.BytesPerSec{units.GBps(10), units.GBps(10)})
	lone := n.AddNode("lone", KindGPU)
	s := n.NewLegSet(3)
	s.Add(gpus[0], gpus[1])
	s.Add(gpus[0], lone)
	s.Add(gpus[1], gpus[0])
	env.Go("driver", func(p *sim.Proc) {
		if _, err := s.Arm(p, units.MB, 0); err == nil {
			t.Error("arming an unreachable leg returned no error")
		}
		if len(s.flows) != 1 || n.ActiveFlows() != 1 {
			t.Errorf("%d flows returned, %d active after the error, want the first leg's 1", len(s.flows), n.ActiveFlows())
		}
		s.flows[0].Done().Wait(p)
		s.Release()
		n.ConnectSym(lone, gpus[1], units.GBps(10), time.Microsecond, "PCI-e 4.0")
		if err := armRound(p, s, units.MB); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active", n.ActiveFlows())
	}
}

// TestStartFlowReleaseAllocatesNothing gates the caller-held flow cycle:
// a warm StartFlow, wait, ReleaseFlow loop reuses one pooled Flow.
func TestStartFlowReleaseAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	n, gpus := star(env, []units.BytesPerSec{units.GBps(10), units.GBps(10)})
	stop, copies := false, 0
	env.Go("copier", func(p *sim.Proc) {
		for !stop {
			f, err := n.StartFlow(gpus[0], gpus[1], units.MB)
			if err != nil {
				panic(err)
			}
			f.Done().Wait(p)
			n.ReleaseFlow(f)
			copies++
		}
	})
	var horizon sim.Time
	step := func() {
		horizon += time.Millisecond
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the pools
	from := copies
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a warm StartFlow/ReleaseFlow cycle allocates %.1f objects per 1ms step, want 0", allocs)
	}
	if copies-from < 20 {
		t.Fatalf("only %d copies measured", copies-from)
	}
	stop = true
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseFlowPanicsOnIncompleteFlow: a flow still in flight must not
// go back to the pool.
func TestReleaseFlowPanicsOnIncompleteFlow(t *testing.T) {
	env := sim.NewEnv()
	n, gpus := star(env, []units.BytesPerSec{units.GBps(10), units.GBps(10)})
	env.Go("driver", func(p *sim.Proc) {
		f, err := n.StartFlow(gpus[0], gpus[1], units.MB)
		if err != nil {
			panic(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("ReleaseFlow accepted a flow whose Done has not fired")
			}
			f.Done().Wait(p)
		}()
		n.ReleaseFlow(f)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
