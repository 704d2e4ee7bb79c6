package storage

import (
	"testing"
	"time"

	"composable/internal/fabric"
	"composable/internal/sim"
	"composable/internal/sim/simtest"
	"composable/internal/units"
)

// TestArmReadWriteMatchBlocking pits ArmRead/ArmWrite against Read/Write on
// a two-slot device whose slots are both taken at t=0, with a Go process
// and a stepper queued for a slot at the same instant, ahead of the
// worker. The worker's flows share the device link with theirs.
func TestArmReadWriteMatchBlocking(t *testing.T) {
	spec := BaselineStore
	spec.QueueSlots = 2
	d := simtest.CheckArmMatchesBlock(t, 4, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		net := fabric.NewNetwork(env)
		devNode := net.AddNode("dev", fabric.KindNVMe)
		rc := net.AddNode("rc", fabric.KindRootComplex)
		mem := net.AddNode("mem", fabric.KindMemory)
		net.ConnectSym(devNode, rc, units.GBps(4), time.Microsecond, "PCI-e 3.0")
		net.ConnectSym(rc, mem, units.GBps(100), 300*time.Nanosecond, "SMP")
		dev := New(env, net, spec, devNode, false)
		for _, name := range []string{"hog0", "hog1"} {
			env.Go(name, func(p *sim.Proc) {
				if err := dev.Read(p, mem, 40*units.MB, false); err != nil {
					panic(err)
				}
			})
		}
		env.Go("ahead-go", func(p *sim.Proc) {
			if err := dev.Write(p, mem, 10*units.MB); err != nil {
				panic(err)
			}
		})
		var bg IOOp
		simtest.SpawnLoop(env, "ahead-step", 1, func(sp *sim.Proc, _ int) bool {
			armed, err := dev.ArmRead(sp, &bg, mem, 20*units.MB, true)
			if err != nil {
				panic(err)
			}
			return armed
		})
		// Rounds: random read, write, zero-byte read (a no-op), sequential
		// read.
		size := func(round int) units.Bytes { return []units.Bytes{8 * units.MB, 6 * units.MB, 0, 5 * units.MB}[round] }
		var op IOOp
		return func(p *sim.Proc, round int) {
				var err error
				if round == 1 {
					err = dev.Write(p, mem, size(round))
				} else {
					err = dev.Read(p, mem, size(round), round == 0)
				}
				if err != nil {
					panic(err)
				}
			},
			func(sp *sim.Proc, round int) bool {
				var armed bool
				var err error
				if round == 1 {
					armed, err = dev.ArmWrite(sp, &op, mem, size(round))
				} else {
					armed, err = dev.ArmRead(sp, &op, mem, size(round), round == 0)
				}
				if err != nil {
					panic(err)
				}
				return armed
			}
	})
	if d.Count() < 20 {
		t.Fatalf("only %d events dispatched", d.Count())
	}
}
