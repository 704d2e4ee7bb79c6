package collective

import (
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/units"
)

// TestGroupOverMaxRanksRejected builds a 64-GPU and a 65-GPU star group:
// join marks ranks in a uint64 bitmask, so the 65th rank could never mark
// itself joined, and New must refuse the group rather than count it twice.
func TestGroupOverMaxRanksRejected(t *testing.T) {
	star := func(k int) (*fabric.Network, []*gpu.Device) {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env)
		sw := net.AddNode("sw", fabric.KindSwitch)
		gpus := make([]*gpu.Device, k)
		for i := range gpus {
			node := net.AddNode("gpu", fabric.KindGPU)
			net.ConnectSym(node, sw, units.GBps(16), time.Microsecond, "PCI-e 4.0")
			gpus[i] = gpu.New(env, gpu.TeslaV100PCIe, i, node, false)
		}
		return net, gpus
	}
	if _, err := New(star(maxRanks)); err != nil {
		t.Fatalf("%d-rank group rejected: %v", maxRanks, err)
	}
	if _, err := New(star(maxRanks + 1)); err == nil {
		t.Fatalf("%d-rank group accepted", maxRanks+1)
	}
}

// TestStaleHandleReportsFired runs three serial all-reduces from one
// driver that joins every rank. The second's completion recycles the
// first's op and the third reuses it: the first's handle must then report
// fired and arm nothing, while the third's handle waits for the op to
// complete exactly as the op's own completion signal does.
func TestStaleHandleReportsFired(t *testing.T) {
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	all := func() Handle {
		var h Handle
		for r := 0; r < len(comm.gpus); r++ {
			h = comm.StartAllReduce(r, 16*units.MB)
		}
		return h
	}
	steps := 0
	var armedAt, stepAt, refAt, waitAt sim.Time
	watcher := env.NewStepper("watcher", func() { steps++; stepAt = env.Now() })
	ref := env.NewStepper("ref", func() { refAt = env.Now() })
	env.Go("driver", func(p *sim.Proc) {
		h1 := all()
		h1.Wait(p)
		all().Wait(p)
		h3 := all()
		if h3.o != h1.o {
			t.Error("third op did not reuse the first op")
			return
		}
		if !fired(h1) {
			t.Error("stale handle reports unfired")
		}
		if h1.Arm(watcher) {
			t.Error("stale handle armed")
		}
		if fired(h3) {
			t.Error("fresh handle reports fired before its op ran")
		}
		armedAt = p.Now()
		if !h3.Arm(watcher) {
			t.Error("fresh handle did not arm")
		}
		h3.o.done.Arm(ref)
		h3.Wait(p)
		waitAt = p.Now()
		if !fired(h3) || !fired(h1) {
			t.Error("handles unfired after the op completed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("watcher stepped %d times, want 1 (the stale arm must register nothing)", steps)
	}
	if stepAt <= armedAt || stepAt != refAt || waitAt != refAt {
		t.Fatalf("armed at %v: handle woke a stepper at %v and a process at %v, the op completed at %v",
			armedAt, stepAt, waitAt, refAt)
	}
}

// TestWarmAsyncAllReduceAllocatesNothing gates the async forms' steady
// state in DDP's shape: every rank starts several bucket all-reduces with
// compute between them and waits on the last one. Completed ops recycle
// through the communicator's free list, so a warm step allocates nothing.
func TestWarmAsyncAllReduceAllocatesNothing(t *testing.T) {
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	const buckets = 4
	stop, iters := false, 0
	for rank := 0; rank < len(comm.gpus); rank++ {
		env.Go("rank", func(p *sim.Proc) {
			// Every rank wakes from the last bucket at one instant, so all
			// of them see the same stop and leave no op half joined.
			for !stop {
				var last Handle
				for b := 0; b < buckets; b++ {
					p.Sleep(300 * time.Microsecond) // the bucket's backward compute
					last = comm.StartAllReduce(rank, 8*units.MB)
				}
				last.Wait(p)
				if rank == 0 {
					iters++
				}
			}
		})
	}
	var horizon sim.Time
	step := func() {
		horizon += 10 * time.Millisecond
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // fill the free list, prepare the legs, warm the pools
	from := iters
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("warm async all-reduces allocate %.1f objects per 10ms step, want 0", allocs)
	}
	if iters-from < 20 {
		t.Fatalf("only %d iterations measured", iters-from)
	}
	stop = true
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// fired reports whether h's collective has completed: a stale handle's
// has, since its op was recycled only after firing.
func fired(h Handle) bool { return !h.live() || h.o.done.Fired() }
