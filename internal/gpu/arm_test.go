package gpu

import (
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/sim/simtest"
)

// TestArmComputeMatchesCompute pits ArmCompute against Compute on a busy
// device: a Go process is computing at t=0, and a Go process and a
// stepper queue kernels at the same instant, ahead of the worker.
func TestArmComputeMatchesCompute(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 3, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		dev := newDev(env)
		env.Go("hog", func(p *sim.Proc) { dev.Compute(p, 3*time.Millisecond) })
		env.Go("ahead-go", func(p *sim.Proc) { dev.Compute(p, time.Millisecond) })
		var bg sim.HoldOp
		simtest.SpawnLoop(env, "ahead-step", 2, func(sp *sim.Proc, _ int) bool {
			return dev.ArmCompute(sp, &bg, 2*time.Millisecond)
		})
		// Round 1 is a zero-length kernel: it still queues and wakes.
		dur := func(round int) time.Duration {
			if round == 1 {
				return 0
			}
			return time.Millisecond
		}
		var op sim.HoldOp
		return func(p *sim.Proc, round int) { dev.Compute(p, dur(round)) },
			func(sp *sim.Proc, round int) bool { return dev.ArmCompute(sp, &op, dur(round)) }
	})
	if d.Count() < 12 {
		t.Fatalf("only %d events dispatched", d.Count())
	}
}
