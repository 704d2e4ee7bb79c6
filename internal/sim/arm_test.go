package sim_test

import (
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
	"composable/internal/sim/simtest"
)

// contend starts the background every arm-form test runs against: a Go
// process that grabs all capacity units of r at t=0 and holds them, then two waiters — one
// goroutine process, one tracked stepper — that queue on r at the same
// instant, ahead of the worker spawned after them.
func contend(env *sim.Env, r *sim.Resource, capacity int) {
	env.Go("hog", func(p *sim.Proc) {
		r.Hold(p, capacity, 3*time.Millisecond)
	})
	env.Go("ahead-go", func(p *sim.Proc) {
		r.Hold(p, 1, time.Millisecond)
	})
	var h sim.HoldOp
	simtest.SpawnLoop(env, "ahead-step", 2, func(sp *sim.Proc, _ int) bool {
		return r.ArmHold(sp, &h, 1, 2*time.Millisecond)
	})
}

// minEvents guards against a scenario that silently exercises nothing.
func minEvents(t *testing.T, d *sim.Digest, n uint64) {
	t.Helper()
	if d.Count() < n {
		t.Fatalf("only %d events dispatched, want at least %d", d.Count(), n)
	}
}

func TestArmResourceMatchesAcquire(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 3, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		r := sim.NewResource("dev", 2)
		contend(env, r, 2)
		block := func(p *sim.Proc, _ int) {
			r.Acquire(p, 2)
			p.Sleep(time.Millisecond)
			r.Release(env, 2)
		}
		stage := 0
		arm := func(sp *sim.Proc, _ int) bool {
			switch stage {
			case 0:
				stage = 1
				if r.Arm(sp, 2) {
					return true
				}
				fallthrough
			case 1:
				stage = 2
				env.ReadyAfter(sp, time.Millisecond)
				return true
			default:
				stage = 0
				r.Release(env, 2)
				return false
			}
		}
		return block, arm
	})
	minEvents(t, d, 12)
}

func TestArmHoldMatchesHold(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 4, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		r := sim.NewResource("dev", 2)
		contend(env, r, 2)
		// Round 2 holds for zero time: the wake still takes its own
		// same-instant slot.
		dur := func(round int) time.Duration { return time.Duration(round%2) * time.Millisecond }
		var h sim.HoldOp
		return func(p *sim.Proc, round int) { r.Hold(p, 1+round%2, dur(round)) },
			func(sp *sim.Proc, round int) bool { return r.ArmHold(sp, &h, 1+round%2, dur(round)) }
	})
	minEvents(t, d, 14)
}

func TestReadyAfterMatchesSleep(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 4, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		contend(env, sim.NewResource("dev", 1), 1)
		dur := func(round int) time.Duration { return time.Duration(round-1) * time.Millisecond } // -1ms clamps to 0
		slept := false
		return func(p *sim.Proc, round int) { p.Sleep(dur(round)) },
			func(sp *sim.Proc, round int) bool {
				if slept = !slept; slept {
					env.ReadyAfter(sp, dur(round))
				}
				return slept
			}
	})
	minEvents(t, d, 10)
}

func TestArmGetMatchesGet(t *testing.T) {
	d := simtest.CheckArmMatchesBlock(t, 4, func(env *sim.Env) (func(*sim.Proc, int), func(*sim.Proc, int) bool) {
		q := sim.NewQueue("h2d.gpu0")
		// Two consumers queue ahead of the worker; the producer puts one
		// item per millisecond, then closes, so the worker's last Get
		// returns on close.
		env.Go("ahead-go", func(p *sim.Proc) { q.Get(p) })
		simtest.SpawnLoop(env, "ahead-step", 1, func(sp *sim.Proc, _ int) bool {
			_, _, armed := q.ArmGet(sp)
			return armed
		})
		env.Go("producer", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Millisecond)
				q.Put(env, i)
			}
			q.Close(env)
		})
		var got []any
		return func(p *sim.Proc, _ int) {
				if v, ok := q.Get(p); ok {
					got = append(got, v)
				}
			},
			func(sp *sim.Proc, _ int) bool {
				v, ok, armed := q.ArmGet(sp)
				if ok {
					got = append(got, v)
				}
				return armed
			}
	})
	minEvents(t, d, 12)
}

func TestSpawnTracksLikeGo(t *testing.T) {
	type life struct {
		name       string
		start, end time.Duration
	}
	run := func(tracked bool) ([]life, []int) {
		env := sim.NewEnv()
		var lives []life
		env.SetProcProbe(func(name string, at sim.Time) uint64 {
			lives = append(lives, life{name: name, start: at, end: -1})
			return uint64(len(lives))
		}, func(tok uint64, at sim.Time) { lives[tok-1].end = at })
		var live []int
		env.Schedule(500*time.Microsecond, func() { live = append(live, env.LiveProcs()) })
		env.Schedule(1500*time.Microsecond, func() { live = append(live, env.LiveProcs()) })
		for i, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
			d := d
			name := []string{"a", "b"}[i]
			if tracked {
				simtest.SpawnLoop(env, name, 1, func(sp *sim.Proc, _ int) bool {
					if env.Now() == 0 {
						env.ReadyAfter(sp, d)
						return true
					}
					return false
				})
			} else {
				env.Go(name, func(p *sim.Proc) { p.Sleep(d) })
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return lives, live
	}
	goLives, goLive := run(false)
	stLives, stLive := run(true)
	if len(goLives) != 2 || len(stLives) != 2 {
		t.Fatalf("lifetimes: go %v, stepper %v", goLives, stLives)
	}
	for i := range goLives {
		if goLives[i] != stLives[i] {
			t.Errorf("lifetime %d: go %+v, stepper %+v", i, goLives[i], stLives[i])
		}
	}
	if len(goLive) != 2 || goLive[0] != 2 || goLive[1] != 1 || len(stLive) != 2 || stLive[0] != goLive[0] || stLive[1] != goLive[1] {
		t.Errorf("LiveProcs samples: go %v, stepper %v; want [2 1] for both", goLive, stLive)
	}
}

func TestTrackedStepperInDeadlockReport(t *testing.T) {
	env := sim.NewEnv()
	q := sim.NewQueue("h2d.gpu0")
	r := sim.NewResource("gpu0.compute", 1)
	held := false
	simtest.SpawnLoop(env, "holder", 1, func(sp *sim.Proc, _ int) bool {
		if !held {
			held = true
			r.Arm(sp, 1)
			env.ReadyAfter(sp, time.Millisecond)
			return true
		}
		var never sim.Signal
		return never.Arm(sp)
	})
	simtest.SpawnLoop(env, "rank0", 1, func(sp *sim.Proc, _ int) bool {
		_, _, armed := q.ArmGet(sp)
		return armed
	})
	simtest.SpawnLoop(env, "feeder0", 1, func(sp *sim.Proc, _ int) bool { return r.Arm(sp, 1) })
	err := env.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	for _, want := range []string{
		"3 blocked process(es)",
		"rank0 (waiting: queue h2d.gpu0)",
		"feeder0 (waiting: resource gpu0.compute)",
		"holder (waiting: signal)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q missing %q", err, want)
		}
	}
}

func TestTrackedStepperPanicFailsRun(t *testing.T) {
	env := sim.NewEnv()
	simtest.SpawnLoop(env, "boom", 1, func(sp *sim.Proc, _ int) bool {
		if env.Now() == 0 {
			env.ReadyAfter(sp, time.Millisecond)
			return true
		}
		panic("kaboom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), `process "boom" panicked: kaboom`) {
		t.Fatalf("Run error = %v, want the stepper's panic", err)
	}
	if n := env.LiveProcs(); n != 0 {
		t.Fatalf("panicked stepper still live: LiveProcs = %d", n)
	}
}

// TestDigestReportsFirstDivergence reorders two same-instant wake-ups —
// a change no end result below observes — and checks the divergence
// finder names the first differing event and the events before it.
func TestDigestReportsFirstDivergence(t *testing.T) {
	setup := func(swap bool) simtest.Setup {
		return func(env *sim.Env) error {
			names := []string{"w1", "w2"}
			if swap {
				names[0], names[1] = names[1], names[0]
			}
			env.Go("lead", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					p.Sleep(time.Millisecond)
				}
			})
			for _, n := range names {
				env.Go(n, func(p *sim.Proc) { p.Sleep(5 * time.Millisecond) })
			}
			return env.Run()
		}
	}
	if _, err := simtest.Compare(setup(false), setup(false)); err != nil {
		t.Fatalf("identical setups diverged: %v", err)
	}
	_, err := simtest.Compare(setup(false), setup(true))
	div, ok := err.(*simtest.Divergence)
	if !ok {
		t.Fatalf("Compare error = %v, want a *Divergence", err)
	}
	if div.Index != 1 || div.A == nil || div.B == nil || div.A.Proc != "w1" || div.B.Proc != "w2" || div.A.At != 0 {
		t.Fatalf("divergence = %+v, want w1 vs w2 at event 1, t=0", div)
	}
	if len(div.Before) != 1 || div.Before[0].Proc != "lead" {
		t.Fatalf("context before divergence = %v, want the lead spawn", div.Before)
	}
	if !strings.Contains(div.Error(), `"w1"`) || !strings.Contains(div.Error(), `"w2"`) {
		t.Fatalf("report %q does not name both processes", div.Error())
	}
}
