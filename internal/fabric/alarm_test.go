package fabric

import (
	"math/rand"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/units"
)

// star builds k GPUs around one switch, every link 1µs, so every transfer
// between two GPUs has the same path latency.
func star(env *sim.Env, caps []units.BytesPerSec) (*Network, []NodeID) {
	n := NewNetwork(env)
	sw := n.AddNode("sw", KindSwitch)
	gpus := make([]NodeID, len(caps))
	for i, c := range caps {
		gpus[i] = n.AddNode("gpu", KindGPU)
		n.ConnectSym(gpus[i], sw, c, time.Microsecond, "PCI-e 4.0")
	}
	return n, gpus
}

// TestEmptyCompletionChecksTakeOnePass runs contended random transfers and
// accounts for every completion-alarm run. A run that retires flows does
// so at its own instant (each run re-arms at least 1 ns ahead), and every
// flow here has the same path latency, so the distinct arrival instants
// count the retiring runs. Every other run retired nothing, and all of
// them must have taken the one-pass path.
func TestEmptyCompletionChecksTakeOnePass(t *testing.T) {
	env := sim.NewEnv()
	n, gpus := star(env, []units.BytesPerSec{units.GBps(10), units.GBps(7), units.GBps(13), units.GBps(3), units.GBps(10), units.GBps(5)})
	lat := 2 * time.Microsecond
	retired := make(map[sim.Time]bool)
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 5; w++ {
		env.Go("worker", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				src := rng.Intn(len(gpus))
				dst := (src + 1 + rng.Intn(len(gpus)-1)) % len(gpus)
				if err := n.Transfer(p, gpus[src], gpus[dst], units.Bytes(1+rng.Intn(64))*units.MB); err != nil {
					panic(err)
				}
				retired[p.Now()-lat] = true
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n.emptyChecks == 0 {
		t.Fatal("no completion check came up empty: the test no longer exercises the one-pass path")
	}
	if slow := n.checks - n.emptyChecks - len(retired); slow != 0 {
		t.Fatalf("%d alarm runs: %d one-pass, %d retiring, %d retired nothing yet took the full path",
			n.checks, n.emptyChecks, len(retired), slow)
	}
	t.Logf("%d alarm runs: %d one-pass, %d retiring", n.checks, n.emptyChecks, len(retired))
}

// TestSupersededAlarmDispatchesNothing: a flow start that moves the next
// completion replaces the pending alarm, and nothing is dispatched at the
// deadline it replaced.
func TestSupersededAlarmDispatchesNothing(t *testing.T) {
	env, n, a, _, c := line(t)
	d := &sim.Digest{Keep: true}
	env.SetDigest(d)
	var superseded sim.Time
	env.Schedule(0, func() {
		if _, err := n.StartFlow(a, c, 10*units.GB); err != nil {
			panic(err)
		}
		superseded, _ = n.alarm.Pending()
	})
	env.Schedule(500*time.Millisecond, func() {
		if _, err := n.StartFlow(a, c, 10*units.GB); err != nil {
			panic(err)
		}
		if at, _ := n.alarm.Pending(); at <= superseded {
			panic("the second flow did not move the next completion later")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Events {
		if r.At == superseded {
			t.Fatalf("event dispatched at the superseded deadline %v: %v", superseded, r)
		}
	}
	if n.checks == 0 || uint64(len(d.Events)) != env.EventCount() {
		t.Fatalf("%d alarm runs, %d events folded, EventCount %d", n.checks, len(d.Events), env.EventCount())
	}
}

// TestParallelTransferRoundAllocatesNothing gates the steady state of a
// wide collective round: 40 legs, every one retired by the same alarm
// run, through the pooled leg lists and the reused retirement list.
func TestParallelTransferRoundAllocatesNothing(t *testing.T) {
	const legs = 40
	caps := make([]units.BytesPerSec, legs)
	for i := range caps {
		caps[i] = units.GBps(10)
	}
	env := sim.NewEnv()
	n, gpus := star(env, caps)
	xs := make([]TransferSpec, legs)
	for i := range xs {
		xs[i] = TransferSpec{Src: gpus[i], Dst: gpus[(i+1)%legs], Size: 32 * units.MB}
	}
	stop, rounds := false, 0
	env.Go("ring", func(p *sim.Proc) {
		for !stop {
			if err := n.ParallelTransfer(p, xs); err != nil {
				panic(err)
			}
			rounds++
		}
	})
	var horizon sim.Time
	step := func() {
		horizon += 10 * time.Millisecond
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the pools
	from := rounds
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a warm %d-leg ParallelTransfer round allocates %.1f objects per 10ms step, want 0", legs, allocs)
	}
	if rounds-from < 20 {
		t.Fatalf("only %d rounds measured", rounds-from)
	}
	stop = true
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
