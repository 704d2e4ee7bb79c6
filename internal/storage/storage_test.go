package storage

import (
	"testing"
	"time"

	"composable/internal/fabric"
	"composable/internal/hostcpu"
	"composable/internal/sim"
	"composable/internal/units"
)

// rig builds dev --(4 GB/s link)-- rc --(100 GB/s)-- mem.
func rig(t *testing.T, spec Spec) (*sim.Env, *Device, fabric.NodeID) {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	devNode := net.AddNode("dev", fabric.KindNVMe)
	rc := net.AddNode("rc", fabric.KindRootComplex)
	mem := net.AddNode("mem", fabric.KindMemory)
	net.ConnectSym(devNode, rc, units.GBps(4), time.Microsecond, "PCI-e 3.0")
	net.ConnectSym(rc, mem, units.GBps(100), 300*time.Nanosecond, "SMP")
	return env, New(env, net, spec, devNode, false), mem
}

func TestSequentialReadRate(t *testing.T) {
	env, dev, mem := rig(t, IntelNVMe4TB)
	var took time.Duration
	env.Go("r", func(p *sim.Proc) {
		start := p.Now()
		if err := dev.Read(p, mem, 3200*units.MB, false); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// ≈3.2 GiB at 3.2 GB/s media ≈ 1.05 s (+latency).
	want := time.Duration(float64(3200*units.MB) / 3.2e9 * float64(time.Second))
	if d := took - want; d < 0 || d > 5*time.Millisecond {
		t.Fatalf("seq read took %v, want ≈%v", took, want)
	}
}

func TestRandomSlowerThanSequential(t *testing.T) {
	measure := func(random bool) time.Duration {
		env, dev, mem := rig(t, BaselineStore)
		var took time.Duration
		env.Go("r", func(p *sim.Proc) {
			start := p.Now()
			_ = dev.Read(p, mem, units.GB, random)
			took = p.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	seq, rnd := measure(false), measure(true)
	if rnd <= seq {
		t.Fatalf("random (%v) should be slower than sequential (%v)", rnd, seq)
	}
	// Baseline store: 1.4 vs 0.25 GB/s → ≈5.6×.
	ratio := rnd.Seconds() / seq.Seconds()
	if ratio < 4.5 || ratio > 6.5 {
		t.Fatalf("random/seq ratio = %.1f, want ≈5.6", ratio)
	}
}

func TestWritesSlowerOnBaseline(t *testing.T) {
	env, dev, mem := rig(t, BaselineStore)
	var took time.Duration
	env.Go("w", func(p *sim.Proc) {
		start := p.Now()
		if err := dev.Write(p, mem, 450*units.MB); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took < time.Second || took > 1100*time.Millisecond {
		t.Fatalf("450MiB checkpoint at 0.45GB/s took %v, want ≈1.05s", took)
	}
}

func TestQueueDepthLimitsConcurrency(t *testing.T) {
	spec := IntelNVMe4TB
	spec.QueueSlots = 1
	env, dev, mem := rig(t, spec)
	var last time.Duration
	for i := 0; i < 2; i++ {
		env.Go("r", func(p *sim.Proc) {
			_ = dev.Read(p, mem, 320*units.MB, false)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// QD1: the two reads serialize (≈105ms each + latency).
	if last < 200*time.Millisecond {
		t.Fatalf("QD1 reads overlapped: finished at %v", last)
	}
}

func TestZeroSizeIONoops(t *testing.T) {
	env, dev, mem := rig(t, IntelNVMe4TB)
	env.Go("r", func(p *sim.Proc) {
		if err := dev.Read(p, mem, 0, false); err != nil {
			t.Error(err)
		}
		if err := dev.Write(p, mem, 0); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Fatalf("zero-size IO advanced time to %v", env.Now())
	}
}

func TestPageCacheAdmissionAndPressure(t *testing.T) {
	env := sim.NewEnv()
	host := hostcpu.New(env, hostcpu.XeonGold6148x2)
	c := NewPageCache(host)
	c.Admit("imagenet", 100*units.GB, 141*units.GB)
	if got := c.CachedBytes("imagenet"); got != 100*units.GB {
		t.Fatalf("cached = %v", got)
	}
	// Admission clamps to the dataset size.
	c.Admit("imagenet", 100*units.GB, 141*units.GB)
	if got := c.CachedBytes("imagenet"); got != 141*units.GB {
		t.Fatalf("cached = %v, want clamped 141GB", got)
	}
	// Memory pressure stops admission silently.
	c.Admit("coco", 900*units.GB, units.TB)
	if got := c.CachedBytes("coco"); got != 0 {
		t.Fatalf("admission under pressure cached %v", got)
	}
}
