package collective

import (
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/sim"
	"composable/internal/units"
)

func compose(t *testing.T, cfg cluster.Config) (*sim.Env, *cluster.System, *Communicator) {
	t.Helper()
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := New(sys.Net, sys.GPUs)
	if err != nil {
		t.Fatal(err)
	}
	return env, sys, comm
}

func TestRingUsesNVLinkForLocalGroup(t *testing.T) {
	_, _, comm := compose(t, cluster.LocalGPUsConfig())
	if comm.RingEfficiency() != NVLinkRingEfficiency {
		t.Fatalf("local ring efficiency = %v, want NVLink %v", comm.RingEfficiency(), NVLinkRingEfficiency)
	}
	ring := comm.Ring()
	if len(ring) != 8 {
		t.Fatalf("ring size = %d", len(ring))
	}
	seen := map[int]bool{}
	for _, r := range ring {
		if seen[r] {
			t.Fatalf("ring visits rank %d twice: %v", r, ring)
		}
		seen[r] = true
	}
}

func TestRingDropsToPCIeEfficiencyWithFalconGPUs(t *testing.T) {
	for _, cfg := range []cluster.Config{cluster.FalconGPUsConfig(), cluster.HybridGPUsConfig()} {
		_, _, comm := compose(t, cfg)
		if comm.RingEfficiency() != PCIeRingEfficiency {
			t.Fatalf("%s ring efficiency = %v, want PCIe %v", cfg.Name, comm.RingEfficiency(), PCIeRingEfficiency)
		}
	}
}

// TestAllReduceLatencyOrdering checks the headline mechanism of the paper:
// the same all-reduce is far slower on Falcon-attached GPUs than on the
// NVLink-local group, and the hybrid group pays the PCIe price too.
func TestAllReduceLatencyOrdering(t *testing.T) {
	measure := func(cfg cluster.Config, size units.Bytes) time.Duration {
		env, _, comm := compose(t, cfg)
		var took time.Duration
		env.Go("bench", func(p *sim.Proc) {
			start := p.Now()
			comm.ExecAllReduce(p, size)
			took = p.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	const size = 640 * units.MB // ≈ BERT-large FP16 gradient payload
	local := measure(cluster.LocalGPUsConfig(), size)
	falcon := measure(cluster.FalconGPUsConfig(), size)
	hybrid := measure(cluster.HybridGPUsConfig(), size)
	t.Logf("allreduce %v: local=%v hybrid=%v falcon=%v", size, local, hybrid, falcon)
	if falcon < 3*local {
		t.Errorf("falcon ring (%v) should be ≫ local ring (%v)", falcon, local)
	}
	if hybrid < 2*local {
		t.Errorf("hybrid ring (%v) should be ≫ local ring (%v)", hybrid, local)
	}
}

// TestAllReduceBusBandwidth sanity-checks the local ring against NCCL-style
// bus bandwidth accounting: busbw = 2*(n-1)/n * size / time should be in
// the tens of GB/s on NVLink.
func TestAllReduceBusBandwidth(t *testing.T) {
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	const size = units.GB
	var took time.Duration
	env.Go("bench", func(p *sim.Proc) {
		start := p.Now()
		comm.ExecAllReduce(p, size)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	busbw := 2.0 * 7 / 8 * float64(size) / took.Seconds() / 1e9
	if busbw < 20 || busbw > 80 {
		t.Fatalf("local allreduce busbw = %.1f GB/s, want 20-80", busbw)
	}
}

func TestCollectiveStreamOrdering(t *testing.T) {
	// Two back-to-back all-reduces issued by all ranks must complete in
	// order and take roughly double the single-op time.
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	const size = 100 * units.MB
	var firstDone, secondDone time.Duration
	var wg sim.WaitGroup
	wg.Add(len(comm.gpus))
	for rank := 0; rank < len(comm.gpus); rank++ {
		env.Go("rank", func(p *sim.Proc) {
			h1 := comm.StartAllReduce(rank, size)
			h2 := comm.StartAllReduce(rank, size)
			h1.Wait(p)
			if firstDone == 0 {
				firstDone = p.Now()
			}
			h2.Wait(p)
			if secondDone == 0 {
				secondDone = p.Now()
			}
			wg.Done(env)
		})
	}
	env.Go("join", func(p *sim.Proc) { wg.Wait(p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if firstDone <= 0 || secondDone <= firstDone {
		t.Fatalf("ordering violated: first=%v second=%v", firstDone, secondDone)
	}
	ratio := float64(secondDone) / float64(firstDone)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("second op at %.2fx first, want ~2x (serialized stream)", ratio)
	}
}

func TestBroadcastAndReduceToRootSlowerThanRing(t *testing.T) {
	// DP's master-GPU pattern (reduce-to-root + broadcast, every rank
	// joining as DP training does) must cost more than one ring all-reduce
	// of the same payload: the master's links serialize 7 peer flows.
	const size = 256 * units.MB
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	var wg sim.WaitGroup
	wg.Add(len(comm.gpus))
	for rank := 0; rank < len(comm.gpus); rank++ {
		env.Go("rank", func(p *sim.Proc) {
			comm.ReduceToRoot(p, rank, 0, size)
			comm.Broadcast(p, rank, 0, size)
			wg.Done(env)
		})
	}
	var dpTime, ringTime time.Duration
	env.Go("ring", func(p *sim.Proc) {
		wg.Wait(p)
		dpTime = p.Now()
		comm.ExecAllReduce(p, size)
		ringTime = p.Now() - dpTime
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("dp=%v ring=%v", dpTime, ringTime)
	if dpTime <= ringTime {
		t.Fatalf("DP pattern (%v) should be slower than ring (%v)", dpTime, ringTime)
	}
}

func TestNewWithRingValidation(t *testing.T) {
	_, sys, _ := compose(t, cluster.LocalGPUsConfig())
	if _, err := NewWithRing(sys.Net, sys.GPUs, []int{0, 1}); err == nil {
		t.Error("short ring accepted")
	}
	if _, err := NewWithRing(sys.Net, sys.GPUs, []int{0, 1, 2, 3, 4, 5, 6, 6}); err == nil {
		t.Error("duplicate ring entry accepted")
	}
	if _, err := NewWithRing(sys.Net, sys.GPUs, []int{0, 1, 2, 3, 4, 5, 6, 9}); err == nil {
		t.Error("out-of-range ring entry accepted")
	}
	if _, err := NewWithRing(sys.Net, sys.GPUs, []int{7, 6, 5, 4, 3, 2, 1, 0}); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
}

func TestChannelCountEffects(t *testing.T) {
	// Counter-rotating channels double effective ring bandwidth where
	// ring edges are dedicated full-duplex links (the NVLink mesh), but
	// are neutral where both ring directions already share a bottleneck
	// (the falcon host-adapter links) — the A2 ablation's result.
	measure := func(cfg cluster.Config, ch int) time.Duration {
		env, _, comm := compose(t, cfg)
		comm.SetChannels(ch)
		var took time.Duration
		env.Go("b", func(p *sim.Proc) {
			start := p.Now()
			comm.ExecAllReduce(p, 256*units.MB)
			took = p.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	localOne := measure(cluster.LocalGPUsConfig(), 1)
	localTwo := measure(cluster.LocalGPUsConfig(), 2)
	if r := localOne.Seconds() / localTwo.Seconds(); r < 1.9 || r > 2.1 {
		t.Fatalf("NVLink ring: 1ch/2ch = %.2f, want 2 (dedicated links)", r)
	}
	falconOne := measure(cluster.FalconGPUsConfig(), 1)
	falconTwo := measure(cluster.FalconGPUsConfig(), 2)
	if d := falconOne.Seconds()/falconTwo.Seconds() - 1; d < -0.02 || d > 0.02 {
		t.Fatalf("falcon ring: 1ch=%v 2ch=%v, want invariant (shared bottleneck)", falconOne, falconTwo)
	}
}

func TestReduceScatterHalfOfAllReduce(t *testing.T) {
	env, _, comm := compose(t, cluster.LocalGPUsConfig())
	const size = 512 * units.MB
	var rsTime, arTime time.Duration
	env.Go("b", func(p *sim.Proc) {
		start := p.Now()
		comm.runRingPasses(p, size, 1)
		rsTime = p.Now() - start
		start = p.Now()
		comm.runRingPasses(p, size, 2)
		arTime = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := arTime.Seconds() / rsTime.Seconds()
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("allreduce/reducescatter = %.2f, want 2 (two passes)", ratio)
	}
}
