package hostcpu

import (
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/sim/simtest"
)

// TestArmRunOnCoresMatchesBlocking pits ArmRunOnCore(s) against
// RunOnCore(s) on a saturated core pool: a Go process holds every core at
// t=0, and a Go process and a stepper queue for cores at the same instant,
// ahead of the worker.
func TestArmRunOnCoresMatchesBlocking(t *testing.T) {
	slow := XeonGold6148x2
	slow.PerCoreScale = 0.5 // durations double: the scaling is on both paths
	d := simtest.CheckArmMatchesBlock(t, 4, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		h := New(env, slow)
		env.Go("hog", func(p *sim.Proc) { h.RunOnCores(p, h.TotalCores(), 3*time.Millisecond) })
		env.Go("ahead-go", func(p *sim.Proc) { h.RunOnCore(p, time.Millisecond) })
		var bg sim.HoldOp
		simtest.SpawnLoop(env, "ahead-step", 2, func(sp *sim.Proc, _ int) bool {
			return h.ArmRunOnCores(sp, &bg, 30, time.Millisecond)
		})
		// Odd rounds ask for more cores than exist (clamped) or none
		// (raised to one), even rounds use the single-core form.
		cores := func(round int) int { return []int{1, 99, 1, 0}[round] }
		var op sim.HoldOp
		return func(p *sim.Proc, round int) {
				if round%2 == 0 {
					h.RunOnCore(p, 2*time.Millisecond)
					return
				}
				h.RunOnCores(p, cores(round), 2*time.Millisecond)
			},
			func(sp *sim.Proc, round int) bool {
				if round%2 == 0 {
					return h.ArmRunOnCore(sp, &op, 2*time.Millisecond)
				}
				return h.ArmRunOnCores(sp, &op, cores(round), 2*time.Millisecond)
			}
	})
	if d.Count() < 14 {
		t.Fatalf("only %d events dispatched", d.Count())
	}
}
