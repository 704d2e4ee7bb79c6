package sim

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSleepOrdering(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("b", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		order = append(order, "b")
	})
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, "a")
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(30 * time.Millisecond)
		order = append(order, "c")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", e.Now())
	}
}

func TestSameInstantDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEnv()
		var got []int
		for i := 0; i < 10; i++ {
			e.Go("p", func(p *Proc) {
				p.Sleep(5 * time.Millisecond)
				got = append(got, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic ordering: %v vs %v", first, again)
			}
		}
	}
	// Spawn order should equal execution order at the same instant.
	for i, v := range first {
		if v != i {
			t.Fatalf("same-instant order not FIFO: %v", first)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEnv()
	var doneAt time.Duration
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(2 * time.Millisecond)
			doneAt = c.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Millisecond {
		t.Fatalf("child finished at %v, want 3ms", doneAt)
	}
}

func TestIdle(t *testing.T) {
	env := NewEnv()
	if !env.Idle() {
		t.Fatal("fresh env not idle")
	}
	alarm := env.NewAlarm(func() {})
	alarm.Set(time.Second)
	if env.Idle() {
		t.Fatal("env with an armed alarm reported idle")
	}
	var seen []bool
	env.Schedule(time.Millisecond, func() { seen = append(seen, env.Idle()) })
	env.Schedule(2*time.Second, func() { seen = append(seen, env.Idle()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] || !seen[1] {
		t.Fatalf("Idle inside events = %v, want [false true]", seen)
	}
	if !env.Idle() {
		t.Fatal("drained env not idle")
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := e.RunUntil(10500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10500*time.Millisecond {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestSignalBroadcastAndLateWait(t *testing.T) {
	e := NewEnv()
	var sig Signal
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
			if p.Now() != 5*time.Millisecond {
				t.Errorf("woken at %v, want 5ms", p.Now())
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		sig.Fire(e)
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		sig.Wait(p) // already fired: returns immediately
		woken++
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	e := NewEnv()
	r := NewResource("gpu", 2)
	var order []string
	hold := func(name string, d time.Duration) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(d)
			r.Release(e, 1)
			order = append(order, name+"-")
		})
	}
	hold("a", 10*time.Millisecond)
	hold("b", 10*time.Millisecond)
	hold("c", 10*time.Millisecond) // must wait for a or b
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a+" || order[1] != "b+" {
		t.Fatalf("order = %v", order)
	}
	// c acquires only after a release.
	seenRelease := false
	for _, ev := range order {
		if ev == "a-" || ev == "b-" {
			seenRelease = true
		}
		if ev == "c+" && !seenRelease {
			t.Fatalf("c acquired before any release: %v", order)
		}
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("end = %v, want 20ms", e.Now())
	}
}

func TestResourceLargeRequestNotStarved(t *testing.T) {
	e := NewEnv()
	r := NewResource("mem", 4)
	var bigAt time.Duration
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10 * time.Millisecond)
		r.Release(e, 3)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 4) // queued first
		bigAt = p.Now()
		r.Release(e, 4)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p, 1) // must NOT jump the queue
		if bigAt == 0 {
			t.Error("small request overtook queued large request")
		}
		r.Release(e, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bigAt != 10*time.Millisecond {
		t.Fatalf("big acquired at %v, want 10ms", bigAt)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv()
	r := NewResource("x", 2)
	e.Go("u", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10 * time.Millisecond)
		r.Release(e, 2)
		p.Sleep(10 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := r.Utilization(e)
	if got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", got)
	}
}

func TestQueueBlockingAndClose(t *testing.T) {
	e := NewEnv()
	q := NewQueue("batches")
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Put(e, i)
		}
		q.Close(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestSameInstantHeapFIFOInterleave pins the ordering contract between the
// two event queues: an event already in the heap for time t (scheduled
// before t arrived, so with a smaller seq) must run before events scheduled
// *at* t (which take the FIFO fast path), and FIFO events run in seq order.
func TestSameInstantHeapFIFOInterleave(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(time.Millisecond, func() {
		got = append(got, 1)
		// Scheduled at the current instant: FIFO path, seq 3 and 4.
		e.Schedule(time.Millisecond, func() { got = append(got, 3) })
		e.After(0, func() { got = append(got, 4) })
	})
	// Also at 1ms but seq 2: sits in the heap, must beat the FIFO entries.
	e.Schedule(time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestConcurrentEnvsRace runs many independent environments in parallel,
// each hammering the pooled event storage (heap, same-instant FIFO, wake
// events). Under -race this guards against the reused event slices ever
// becoming shared state across environments.
func TestConcurrentEnvsRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEnv()
			r := NewResource("r", 2)
			var sig Signal
			var done WaitGroup
			const procs = 4
			done.Add(procs)
			for i := 0; i < procs; i++ {
				e.Go("w", func(p *Proc) {
					sig.Wait(p)
					for j := 0; j < 200; j++ {
						r.Acquire(p, 1)
						p.Sleep(0) // FIFO fast path
						p.Sleep(time.Microsecond)
						r.Release(e, 1)
					}
					done.Done(e)
				})
			}
			e.Go("firer", func(p *Proc) {
				p.Sleep(time.Microsecond)
				sig.Fire(e)
				done.Wait(p)
			})
			if err := e.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestDeadlockReportsLazyReasons checks the deadlock error renders the
// kind+detail wait state that replaced the per-yield formatted string.
func TestDeadlockReportsLazyReasons(t *testing.T) {
	e := NewEnv()
	var sig Signal
	r := NewResource("gpu0", 1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		sig.Wait(p)
	})
	e.Go("queued", func(p *Proc) { r.Acquire(p, 1) })
	e.Go("napper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sig.Wait(p)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{"signal", "resource gpu0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q missing %q", err, want)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv()
	var sig Signal
	e.Go("stuck", func(p *Proc) { sig.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv()
	var wg WaitGroup
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done(e)
		})
	}
	var doneAt time.Duration
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Millisecond {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestScheduleCallbackOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 11) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 11 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEnv()
	r := NewResource("x", 2)
	e.Go("p", func(p *Proc) {
		if !r.TryAcquire(e, 2) {
			t.Error("try on free resource failed")
		}
		if r.TryAcquire(e, 1) {
			t.Error("try on exhausted resource succeeded")
		}
		r.Release(e, 2)
		if !r.TryAcquire(e, 1) {
			t.Error("try after release failed")
		}
		r.Release(e, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEnv()
	var hits []time.Duration
	e.Schedule(time.Millisecond, func() {
		hits = append(hits, e.Now())
		e.After(time.Millisecond, func() { hits = append(hits, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[1] != 2*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestAddBusyClamped(t *testing.T) {
	e := NewEnv()
	r := NewResource("x", 1)
	e.Go("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		r.AddBusy(e, time.Hour) // clamped to elapsed time
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(e); u > 1.0 {
		t.Fatalf("utilization %v exceeds 1", u)
	}
}
