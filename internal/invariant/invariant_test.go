package invariant

import (
	"strings"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/fabric"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

func TestCleanSetHasNoError(t *testing.T) {
	s := New()
	if s.Err() != nil || s.count != 0 {
		t.Fatalf("fresh set not clean: err=%v count=%d", s.Err(), s.count)
	}
}

func TestReportAndErrRendering(t *testing.T) {
	s := New()
	s.Report("test/rule", time.Second, "value %d too big", 42)
	if s.count == 0 {
		t.Fatal("set still Ok after Report")
	}
	err := s.Err()
	if err == nil {
		t.Fatal("Err() == nil after Report")
	}
	for _, want := range []string{"test/rule", "t=1s", "value 42 too big"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestReportCapsRetainedViolations(t *testing.T) {
	s := New()
	for i := 0; i < maxRecorded+10; i++ {
		s.Report("test/flood", 0, "violation %d", i)
	}
	if s.count != maxRecorded+10 {
		t.Fatalf("Count() = %d, want %d", s.count, maxRecorded+10)
	}
	if len(s.violations) != maxRecorded {
		t.Fatalf("retained %d violations, want cap %d", len(s.violations), maxRecorded)
	}
	if !strings.Contains(s.Err().Error(), "and 10 more") {
		t.Errorf("error does not mention the overflow: %v", s.Err())
	}
}

func TestWatchEnvPassesCleanRun(t *testing.T) {
	env := sim.NewEnv()
	s := New()
	s.WatchEnv(env)
	env.Go("ticker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

func TestTrainProbeDetectsBackwardsTime(t *testing.T) {
	s := New()
	probe := s.TrainProbe()
	probe(train.ProbeEpoch, 2*time.Second)
	probe(train.ProbeEpoch, time.Second) // backwards
	probe(train.ProbeDone, -time.Second) // negative and backwards
	if s.count == 0 {
		t.Fatal("backwards probe times not detected")
	}
	err := s.Err().Error()
	if !strings.Contains(err, "train/time-monotonic") {
		t.Errorf("missing monotonicity violation: %v", err)
	}
	if !strings.Contains(err, "train/time-positive") {
		t.Errorf("missing negative-time violation: %v", err)
	}
}

func TestWatchNetworkPassesContendedTransfers(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	sw := net.AddNode("sw", fabric.KindSwitch)
	var eps []fabric.NodeID
	for i := 0; i < 4; i++ {
		eps = append(eps, net.AddNode("ep", fabric.KindGPU))
		net.ConnectSym(eps[i], sw, units.GBps(10), time.Microsecond, "pcie")
	}
	s := New()
	s.WatchEnv(env)
	s.WatchNetwork(net)
	for i := 0; i < 4; i++ {
		src, dst := eps[i], eps[(i+1)%4]
		env.Go("driver", func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				if err := net.Transfer(p, src, dst, 64*units.MB); err != nil {
					panic(err)
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("contended transfers violated invariants: %v", err)
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("%d flows left active", net.ActiveFlows())
	}
}

// TestWatchNetworkAcceptsSanctionedCapacityChange pins the conservation
// audit's fault support: degrading a link through SetLinkCapacity while
// traffic crosses it (and repairing it later) is what the fault engine
// does, and must not read as a byte-conservation violation — the capacity
// integral is accumulated window by window with the capacity that was in
// effect, not recomputed from the final capacity.
func TestWatchNetworkAcceptsSanctionedCapacityChange(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	b := net.AddNode("b", fabric.KindGPU)
	id := net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	s.WatchNetwork(net)
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil { // full speed
			panic(err)
		}
		net.SetLinkCapacity(id, units.BytesPerSec(100e6), units.BytesPerSec(100e6)) // degrade ×100
		if err := net.Transfer(p, a, b, 10*units.MB); err != nil {
			panic(err)
		}
		net.SetLinkCapacity(id, units.GBps(10), units.GBps(10)) // repair
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("sanctioned capacity changes flagged as violations: %v", err)
	}
}

// TestWatchNetworkDetectsByteOverrun proves the conservation audit is not
// vacuous. With window-by-window integration the allocator can only trip
// it through an arithmetic bug (moving more bytes than the in-effect
// capacity allowed), so the test forges exactly that state white-box:
// erase the accumulated integral under counters that already carry 100 MB
// and pin the in-effect capacity near zero — the next audit must flag the
// history as unaffordable.
func TestWatchNetworkDetectsByteOverrun(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env)
	a := net.AddNode("a", fabric.KindGPU)
	b := net.AddNode("b", fabric.KindGPU)
	id := net.ConnectSym(a, b, units.GBps(10), time.Microsecond, "pcie")

	s := New()
	s.WatchNetwork(net)
	env.Go("driver", func(p *sim.Proc) {
		if err := net.Transfer(p, a, b, 100*units.MB); err != nil {
			panic(err)
		}
		s.linkCapInt[id] = [2]float64{}
		s.linkPrevCap[id] = [2]float64{1, 1} // 1 B/s forever: history unaffordable
		if err := net.Transfer(p, b, a, units.KB); err != nil {
			panic(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.count == 0 {
		t.Fatal("byte-counter overrun not detected")
	}
	if !strings.Contains(s.Err().Error(), "fabric/bytes-conserved") {
		t.Fatalf("unexpected violations: %v", s.Err())
	}
}

// TestFullRunCleanUnderWatch runs a real (small) training job with every
// probe attached and expects a clean set.
func TestFullRunCleanUnderWatch(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.HybridGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Watch(sys)
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.MobileNetV2Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 3,
		Probe:         s.TrainProbe(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.CheckResult(sys, res)
	if err := s.Err(); err != nil {
		t.Fatalf("clean training run violated invariants: %v", err)
	}
}

// TestCheckResultDetectsCorruptedResult proves the post-run checks bite.
func TestCheckResultDetectsCorruptedResult(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.MobileNetV2Workload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.AvgGPUUtil = 1.5      // not a fraction
	res.TotalTime = -1        // negative
	res.EpochTimes = nil      // count mismatch
	res.FalconPCIeGBps = -0.1 // negative traffic
	s := New()
	s.CheckResult(sys, res)
	errStr := s.Err().Error()
	for _, want := range []string{
		"train/util-fraction", "train/total-time", "train/epoch-count", "train/falcon-traffic",
	} {
		if !strings.Contains(errStr, want) {
			t.Errorf("corrupted result: missing %s violation in %v", want, errStr)
		}
	}
}
