package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

func newDev(env *sim.Env) *Device { return New(env, TeslaV100SXM2, 0, 0, true) }

func TestAllocatorOOM(t *testing.T) {
	env := sim.NewEnv()
	d := newDev(env)
	usable := d.Usable()
	if err := d.Alloc(usable); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	err := d.Alloc(1)
	var oom *ErrOOM
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if oom.Free != 0 {
		t.Fatalf("OOM free = %v", oom.Free)
	}
	d.FreeMem(usable)
	if d.Used() != 0 {
		t.Fatalf("used after free = %v", d.Used())
	}
}

func TestAllocatorPeakTracking(t *testing.T) {
	env := sim.NewEnv()
	d := newDev(env)
	_ = d.Alloc(4 * units.GB)
	_ = d.Alloc(2 * units.GB)
	d.FreeMem(5 * units.GB)
	_ = d.Alloc(units.GB)
	if d.PeakUsed() != 6*units.GB {
		t.Fatalf("peak = %v, want 6GB", d.PeakUsed())
	}
}

func TestMemUtilizationIncludesReserved(t *testing.T) {
	env := sim.NewEnv()
	d := newDev(env)
	base := d.MemUtilization()
	if base <= 0 || base >= 1 {
		t.Fatalf("idle mem util = %v (framework reservation should show)", base)
	}
	_ = d.Alloc(8 * units.GB)
	if d.MemUtilization() <= base {
		t.Fatal("allocation did not raise mem util")
	}
}

// TestAllocatorInvariantProperty: random alloc/free sequences never let
// usage exceed capacity or go negative, and free restores capacity.
func TestAllocatorInvariantProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv()
		d := newDev(env)
		var held []units.Bytes
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 || len(held) == 0 {
				n := units.Bytes(rng.Int63n(int64(4 * units.GB)))
				if err := d.Alloc(n); err == nil {
					held = append(held, n)
				}
			} else {
				i := rng.Intn(len(held))
				d.FreeMem(held[i])
				held = append(held[:i], held[i+1:]...)
			}
			if d.Used() < 0 || d.Used() > d.Usable() {
				return false
			}
			var sum units.Bytes
			for _, h := range held {
				sum += h
			}
			if sum != d.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeSerializesOnDevice(t *testing.T) {
	env := sim.NewEnv()
	d := newDev(env)
	var t1, t2 time.Duration
	env.Go("k1", func(p *sim.Proc) {
		d.Compute(p, 10*time.Millisecond)
		t1 = p.Now()
	})
	env.Go("k2", func(p *sim.Proc) {
		d.Compute(p, 10*time.Millisecond)
		t2 = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != 10*time.Millisecond || t2 != 20*time.Millisecond {
		t.Fatalf("kernels did not serialize: %v, %v", t1, t2)
	}
}

func TestUtilizationAndNCCLBusyCredit(t *testing.T) {
	env := sim.NewEnv()
	d := newDev(env)
	env.Go("work", func(p *sim.Proc) {
		d.Compute(p, 30*time.Millisecond)
		p.Sleep(30 * time.Millisecond) // blocked on a collective
		d.MarkBusyFor(30 * time.Millisecond)
		p.Sleep(40 * time.Millisecond) // idle
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	got := d.Utilization()
	if got < 0.59 || got > 0.61 {
		t.Fatalf("utilization = %v, want 0.6 (30ms compute + 30ms NCCL over 100ms)", got)
	}
}

func TestPrecisionHelpers(t *testing.T) {
	if FP16.BytesPerElement() != 2 || FP32.BytesPerElement() != 4 {
		t.Fatal("bytes per element wrong")
	}
	if FP16.String() != "FP16" || FP32.String() != "FP32" {
		t.Fatal("precision strings wrong")
	}
	if TeslaV100SXM2.Peak(FP16) <= TeslaV100SXM2.Peak(FP32) {
		t.Fatal("tensor-core peak should exceed FP32 peak")
	}
}

func TestCatalogSpecs(t *testing.T) {
	// The catalog must reflect the paper's hardware: 16 GB HBM2 V100s,
	// six NVLink bricks on the SXM2 part, none on the chassis part.
	if TeslaV100SXM2.Memory != 16*units.GB || TeslaV100PCIe.Memory != 16*units.GB {
		t.Fatal("V100s must have 16GB")
	}
	if TeslaV100SXM2.NVLinks != 6 || TeslaV100PCIe.NVLinks != 0 {
		t.Fatal("NVLink brick counts wrong")
	}
	if TeslaP100.PeakFP16 >= TeslaV100SXM2.PeakFP16/2 {
		t.Fatal("P100 has no tensor cores; FP16 peak must be far below V100")
	}
}

// TestComputeResourceName pins the name of each device's compute
// resource, which carries its global index.
func TestComputeResourceName(t *testing.T) {
	env := sim.NewEnv()
	for _, idx := range []int{0, 7, 99, 100, 1023, -3} {
		want := fmt.Sprintf("gpu%d.compute", idx)
		if got := New(env, TeslaV100PCIe, idx, 0, false).compute.Name(); got != want {
			t.Errorf("device %d compute resource = %q, want %q", idx, got, want)
		}
	}
}
