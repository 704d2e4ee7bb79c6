package fabric

import (
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/sim/simtest"
	"composable/internal/units"
)

// TestArmTransferMatchesTransfer pits ArmTransfer(Limited) against
// Transfer(Limited) on a shared line: background flows started by a Go
// process and a stepper at the same instant, ahead of the worker, contend
// with its flows for the links, so every start and completion re-solves
// the shared rates.
func TestArmTransferMatchesTransfer(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 3, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		n := NewNetwork(env)
		a := n.AddNode("a", KindGPU)
		b := n.AddNode("b", KindSwitch)
		c := n.AddNode("c", KindGPU)
		n.ConnectSym(a, b, units.GBps(10), time.Microsecond, "PCI-e 4.0")
		n.ConnectSym(b, c, units.GBps(10), time.Microsecond, "PCI-e 4.0")
		env.Go("ahead-go", func(p *sim.Proc) {
			if err := n.Transfer(p, a, c, 20*units.MB); err != nil {
				panic(err)
			}
		})
		var bg TransferOp
		simtest.SpawnLoop(env, "ahead-step", 2, func(sp *sim.Proc, _ int) bool {
			armed, err := n.ArmTransferLimited(sp, &bg, b, c, 10*units.MB, units.GBps(3))
			if err != nil {
				panic(err)
			}
			return armed
		})
		// Rounds: a plain transfer, a rate-capped one, a same-node one
		// (latency only).
		var op TransferOp
		return func(p *sim.Proc, round int) {
				var err error
				switch round {
				case 0:
					err = n.Transfer(p, a, c, 30*units.MB)
				case 1:
					err = n.TransferLimited(p, a, c, 10*units.MB, units.GBps(2))
				default:
					err = n.Transfer(p, c, c, units.MB)
				}
				if err != nil {
					panic(err)
				}
			},
			func(sp *sim.Proc, round int) bool {
				var armed bool
				var err error
				switch round {
				case 0:
					armed, err = n.ArmTransfer(sp, &op, a, c, 30*units.MB)
				case 1:
					armed, err = n.ArmTransferLimited(sp, &op, a, c, 10*units.MB, units.GBps(2))
				default:
					armed, err = n.ArmTransfer(sp, &op, c, c, units.MB)
				}
				if err != nil {
					panic(err)
				}
				return armed
			}
	})
	if d.Count() < 12 {
		t.Fatalf("only %d events dispatched", d.Count())
	}
}
