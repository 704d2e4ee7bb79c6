package hostcpu

import (
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

func TestCorePoolParallelism(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, XeonGold6148x2)
	if h.TotalCores() != 40 {
		t.Fatalf("cores = %d, want 40 (2×20)", h.TotalCores())
	}
	// 40 tasks of 10ms on 40 cores finish together at 10ms; the 41st
	// waits.
	var last time.Duration
	for i := 0; i < 41; i++ {
		env.Go("w", func(p *sim.Proc) {
			h.RunOnCore(p, 10*time.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 20*time.Millisecond {
		t.Fatalf("last task at %v, want 20ms", last)
	}
}

func TestRunOnCoresClampsToPool(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, XeonGold6148x2)
	env.Go("big", func(p *sim.Proc) {
		h.RunOnCores(p, 1000, 5*time.Millisecond) // clamped to 40
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("took %v", env.Now())
	}
}

func TestPerCoreScale(t *testing.T) {
	spec := XeonGold6148x2
	spec.PerCoreScale = 2.0 // twice as fast
	env := sim.NewEnv()
	h := New(env, spec)
	env.Go("w", func(p *sim.Proc) { h.RunOnCore(p, 10*time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("scaled op took %v, want 5ms", env.Now())
	}
}

func TestHostMemoryAccounting(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, XeonGold6148x2)
	base := h.MemUtilization()
	if base <= 0 {
		t.Fatal("OS baseline memory should register")
	}
	if err := h.AllocMem(100 * units.GB); err != nil {
		t.Fatal(err)
	}
	if h.MemUtilization() <= base {
		t.Fatal("allocation did not raise utilization")
	}
	// Cannot exceed physical memory.
	if err := h.AllocMem(700 * units.GB); err == nil {
		t.Fatal("over-allocation accepted")
	}
	h.FreeMem(100 * units.GB)
	if h.MemUtilization() != base {
		t.Fatalf("utilization after free = %v, want the baseline %v", h.MemUtilization(), base)
	}
}

func TestCPUUtilizationWindowed(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, XeonGold6148x2)
	env.Go("w", func(p *sim.Proc) {
		h.RunOnCores(p, 20, 50*time.Millisecond) // half the cores busy
		p.Sleep(50 * time.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	u := h.UtilizationSince(0, 0)
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %v, want 0.25 (20/40 cores for half the run)", u)
	}
}
