// Package sim is a deterministic discrete-event simulation engine.
//
// The engine drives processes over a virtual clock with a strict
// one-at-a-time handoff: exactly one process (or event callback) runs at
// any instant, and the order of execution is fully determined by
// (timestamp, scheduling sequence number). This makes simulations of the
// composable system reproducible bit-for-bit across runs, which the
// experiment harness relies on.
//
// A process comes in two shapes with identical event semantics:
//
//   - A goroutine-backed process (Env.Go) is an ordinary function that
//     blocks on primitives such as Proc.Sleep, Resource.Acquire or
//     Signal.Wait, in the SimPy style; behind the scenes each block is a
//     yield back to the event loop.
//   - A stepper is a goroutine-free state machine whose wake-ups run its
//     Step inline on the dispatching goroutine. It re-arms through each
//     primitive's arm form (Signal.Arm, Resource.Arm, Queue.ArmGet,
//     Resource.ArmHold, Env.ReadyAfter, ...), which registers the wake-up
//     exactly where the blocking form would, so a stepper occupies the
//     same (timestamp, seq) positions as the equivalent blocking process.
//     Env.Spawn starts a tracked stepper: it is a live process like one
//     started by Go, counted by LiveProcs, listed in deadlock reports and
//     reported to the lifetime probe. The blocking forms are their arm
//     forms plus one park, so every primitive registers waiters in
//     exactly one place.
//
// Because handoff is strict, no locking is needed inside models.
//
// The inner loop is allocation-free in steady state: events are small
// values stored in a reusable typed 4-ary heap (no container/heap
// interface boxing, no per-event pointer), process wake-ups carry the
// *Proc directly instead of a closure, and events scheduled for the
// current instant bypass the heap through a reusable FIFO. A deadline
// that keeps moving lives in an Alarm beside the queues, so its superseded
// instances never reach the heap. All three respect the global
// (timestamp, seq) order, so the fast paths change nothing about execution
// order.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Time is virtual simulation time measured from the start of the run.
type Time = time.Duration

// event is a scheduled wake-up or callback, stored by value. The common
// case — waking a blocked process (Sleep, Signal.Fire, WaitGroup.Done,
// Resource.Release, Queue hand-offs) — carries the process directly in
// proc, so scheduling it allocates nothing. sig carries a deferred
// Signal.Fire the same closure-free way (fabric uses it for flow latency
// fires). fn is the general-purpose callback used by Schedule/After.
// Events with equal timestamps fire in scheduling order (seq), which
// keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	do  eventDo // *Proc (wake), *Signal (fire), *Alarm (fire) or eventFn (call)
}

// eventDo is the closed union of event payloads. All implementations
// are pointer-shaped, so storing one in the interface never allocates, and
// the union keeps event at 32 bytes — two payload pointer fields instead of
// three. The struct size is load-bearing: the event value is copied on
// every enqueue, heap sift and pop, and growing it to 40 bytes measurably
// (~3x) slows the pure callback-chain hot path.
type eventDo interface{ isEvent() }

func (*Proc) isEvent()   {}
func (*Signal) isEvent() {}

// eventFn is a Schedule/After callback boxed as an eventDo.
type eventFn func()

func (eventFn) isEvent() {}

func eventBefore(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Go, then call Run.
type Env struct {
	now Time
	seq uint64
	// heap is a 4-ary min-heap of events ordered by (at, seq); its backing
	// array is reused across the whole run.
	heap []event
	// fifo holds events scheduled for the current instant, in seq order
	// (every entry's at equals now). It is drained ahead of same-instant
	// heap entries with larger seq and its storage is recycled on drain.
	fifo     []event
	fifoHead int
	// alarms lists every alarm made by NewAlarm, and alarm is the earliest
	// armed one (nil when none is): dispatch merges it with the two queue
	// heads, at one nil check per event when no alarm is armed.
	alarms []*Alarm
	alarm  *Alarm
	// rootWake parks the Run caller while processes hold the dispatch
	// baton; the goroutine whose dispatch ends the run (queue drained,
	// limit reached, failure) sends on it. Capacity 1 so the root's own
	// ending dispatch can self-signal.
	rootWake chan struct{}
	// limit is the RunUntil horizon for the current run (-1 for Run).
	limit Time
	// fnPanicked/fnPanic capture a panic from a Schedule/After callback.
	// Under the baton-passing handoff the callback may execute on a
	// process goroutine, but Run's contract is that callback panics escape
	// Run itself — so the panic value is carried to the root goroutine and
	// rethrown there.
	fnPanicked bool
	fnPanic    any
	// curCont is the process whose stepper continuation dispatch is running
	// inline right now; dispatch's recover uses it to attribute a panic to
	// the owning process instead of treating it as a callback panic.
	curCont *Proc
	// procs is the live process set, maintained by swap-remove via each
	// Proc's procIdx — spawn and completion sit on the scheduler's hot
	// path, so membership must not cost a map hash.
	procs   []*Proc
	running bool
	failure error
	// freeProcs parks the goroutines of completed processes for reuse:
	// spawning a process is on the fleet scheduler's per-attempt path
	// (every training rank, feeder and watcher is one), and recycling the
	// Proc, its resume channel and its goroutine makes a steady-state Go
	// allocation-free. The pool is drained when run returns so an idle Env
	// never pins parked goroutines.
	freeProcs []*Proc
	// onEvent, when set, observes every dispatched event's timestamp. It is
	// the engine's invariant probe point (internal/invariant watches it for
	// event-time monotonicity); the nil check keeps the hot loop free.
	onEvent func(at Time)
	// nEvents counts dispatched events for the whole run — a free-running
	// engine odometer the observability layer samples as a gauge.
	nEvents uint64
	// procStart/procEnd, when set, observe live-process lifetimes (spawn
	// in Go or Spawn, completion in runOne or Exit). procStart returns an
	// opaque token carried on the Proc and handed back to procEnd, which
	// is how internal/obs turns each process into one trace span without
	// the engine knowing what a span is. Untracked steppers (NewStepper,
	// InitStepperFor) are not reported: they are engine-internal machinery
	// and would only add noise.
	procStart func(name string, at Time) uint64
	procEnd   func(token uint64, at Time)
	// digest, when set, folds every dispatched event into a rolling hash
	// (SetDigest); the nil check keeps the hot loop free.
	digest *Digest
	// goSpawns and goWakes count goroutine-backed process starts and
	// baton hand-offs to process goroutines. They are not exported: tests
	// read them to prove a run never leaves the dispatching goroutine.
	goSpawns, goWakes uint64
}

// SetEventProbe installs fn to be called with the timestamp of every event
// the loop dispatches, in dispatch order. Pass nil to remove the probe. The
// probe must not mutate simulation state; it exists for invariant checking
// and tracing.
func (e *Env) SetEventProbe(fn func(at Time)) { e.onEvent = fn }

// SetProcProbe installs lifetime observers for live processes — those
// started by Go or Spawn: start is called at spawn and returns a token,
// end receives that token when the process completes. Zero tokens are never handed to end, so an
// observer can use 0 as "not traced". Pass nils to remove the probes. Like
// the event probe, the observers must not mutate simulation state.
func (e *Env) SetProcProbe(start func(name string, at Time) uint64, end func(token uint64, at Time)) {
	e.procStart = start
	e.procEnd = end
}

// EventCount returns the number of events dispatched so far across the
// environment's lifetime.
func (e *Env) EventCount() uint64 { return e.nEvents }

// Idle reports whether nothing is pending: no queued event and no armed
// alarm. Called from inside an event, it asks whether anything besides
// what that event schedules itself will ever run.
func (e *Env) Idle() bool {
	return e.alarm == nil && e.fifoHead == len(e.fifo) && len(e.heap) == 0
}

// LiveProcs returns the number of currently live processes: those started
// by Go plus the tracked steppers started by Spawn that have not exited.
// Untracked steppers (NewStepper, InitStepperFor) are not counted.
func (e *Env) LiveProcs() int { return len(e.procs) }

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{rootWake: make(chan struct{}, 1)}
}

// addProc appends p to the live set.
//
//perf:hot
func (e *Env) addProc(p *Proc) {
	p.procIdx = int32(len(e.procs))
	e.procs = append(e.procs, p)
}

// dropProc swap-removes p from the live set.
//
//perf:hot
func (e *Env) dropProc(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.procIdx] = moved
	moved.procIdx = p.procIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Schedule registers fn to run at absolute virtual time at. Times in the
// past are clamped to the current instant. Schedule may be called before
// Run or from inside a running process or event callback.
//
//perf:hot
func (e *Env) Schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, do: eventFn(fn)})
}

// scheduleWake registers a wake-up of p at absolute time at. It is the
// closure-free fast path behind every blocking primitive in the package.
//
//perf:hot
func (e *Env) scheduleWake(p *Proc, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, do: p})
}

// enqueue routes an event to the same-instant FIFO or the heap.
//
//perf:hot
func (e *Env) enqueue(ev event) {
	if ev.at == e.now {
		e.fifo = append(e.fifo, ev)
		return
	}
	e.heapPush(ev)
}

// After registers fn to run d from now.
func (e *Env) After(d time.Duration, fn func()) { e.Schedule(e.now+d, fn) }

// ScheduleSignal registers s to fire at absolute virtual time at. It is
// the closure-free equivalent of Schedule(at, func() { s.Fire(e) }) and
// obeys the same (timestamp, seq) ordering.
//
//perf:hot
func (e *Env) ScheduleSignal(at Time, s *Signal) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, do: s})
}

// AfterSignal registers s to fire d from now, closure-free.
//
//perf:hot
func (e *Env) AfterSignal(d time.Duration, s *Signal) { e.ScheduleSignal(e.now+d, s) }

// heapPush and heapPop maintain the 4-ary min-heap. A 4-ary layout halves
// the tree depth of the binary heap, and sifting event values directly
// avoids both container/heap's interface{} boxing and a pointer chase per
// comparison.
//
//perf:hot
func (e *Env) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

//perf:hot
func (e *Env) heapPop() event {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the fn/proc references
	h = h[:last]
	e.heap = h
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		min := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(&h[c], &h[min]) {
				min = c
			}
		}
		if !eventBefore(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// waitKind classifies what a blocked process is waiting for. The render to
// a human-readable reason happens only in deadlock reports, so the hot
// yield path never formats strings.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitSleep
	waitSignal
	waitGroup
	waitResource
	waitQueue
)

// Proc is a running simulation process. All blocking primitives take the
// Proc so that only code executing inside the process can block it.
//
// Steppers embed a Proc in their state machine, so its size is paid once
// per machine: the small fields are packed at the end.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	// fn is the body the loop goroutine runs on its next wake.
	fn func(p *Proc)
	// step, when non-nil, marks a stepper: a goroutine-free process whose
	// wake-up events invoke step.Step inline on the dispatching goroutine
	// instead of a context switch (NewStepper, InitStepperFor, Spawn).
	step Stepper
	// padFrom/padFactor, when padFactor > 0, defer an ArmWaitAllPadded
	// wake by (fire time − padFrom) × padFactor.
	padFrom   Time
	padFactor float64
	waitDur   time.Duration // waitSleep
	waitName  string        // waitResource, waitQueue
	// obsTok is the opaque lifetime-probe token from Env.procStart (0 =
	// untraced); runOne or Exit hands it back to Env.procEnd on completion.
	obsTok uint64
	// procIdx is the process's slot in Env.procs while live.
	procIdx int32
	// waitN > 0 marks an ArmWaitAllPadded in progress: the process is
	// registered on waitN unfired signals and must not be woken until the
	// last one fires.
	waitN int32
	// What the process is blocked on; rendered lazily by deadlockError.
	waitKind waitKind
	// exit tells a parked goroutine to terminate when the pool drains.
	exit bool
	// tracked marks a stepper started by Spawn: it sits in the live set
	// until Exit.
	tracked bool
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// blockedOn renders the process's wait state for deadlock reports.
func (p *Proc) blockedOn() string {
	switch p.waitKind {
	case waitSleep:
		return "sleep " + p.waitDur.String()
	case waitSignal:
		return "signal"
	case waitGroup:
		return "waitgroup"
	case waitResource:
		return "resource " + p.waitName
	case waitQueue:
		return "queue " + p.waitName
	default:
		return "runnable"
	}
}

// Go spawns fn as a new process starting at the current virtual time.
// It may be called before Run or from within the simulation. Completed
// processes leave their goroutine parked for the next Go, so spawning is
// allocation-free in steady state.
//
//perf:hot
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
		p.name = name
	} else {
		p = e.newProc(name)
	}
	e.goSpawns++
	p.fn = fn
	e.addProc(p)
	p.obsTok = 0
	if e.procStart != nil {
		p.obsTok = e.procStart(name, e.now)
	}
	// The start is an ordinary wake event: the loop goroutine is already
	// blocked on resume and runs fn on its first wake, exactly where the
	// pre-pooling implementation scheduled its spawn closure.
	e.seq++
	e.enqueue(event{at: e.now, seq: e.seq, do: p})
	return p
}

// newProc allocates a fresh process and starts its parked loop goroutine
// (the Go miss path).
func (e *Env) newProc(name string) *Proc {
	// resume has capacity 1 so a dispatching goroutine can deposit the
	// baton for a process that has not parked yet — including itself.
	p := &Proc{env: e, name: name, resume: make(chan struct{}, 1)}
	go p.loop()
	return p
}

// loop is the persistent body of a process goroutine: run one spawned
// function per wake, park in between. It terminates when the pool drains
// (exit) or the goroutine unwinds via runtime.Goexit inside fn (a test
// failing inside a process), in which case runOne does not park it.
func (p *Proc) loop() {
	for {
		<-p.resume
		if p.exit {
			return
		}
		p.runOne()
	}
}

// runOne executes the current fn with the same termination protocol the
// engine always had: on return, recovered panic, or Goexit the process is
// marked done, removed from the live set, and the baton is passed onward
// by dispatching the next event from this goroutine. Only a goroutine that
// survives (normal return or recovered panic) parks itself for reuse; the
// pool append happens before dispatch so that, if dispatch itself selects
// the wake-up of a Go that reused this very Proc, the baton self-deposit
// works and loop runs the new fn next.
func (p *Proc) runOne() {
	e := p.env
	completed := false
	defer func() {
		r := recover()
		if r != nil && e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		p.fn = nil
		if e.procEnd != nil && p.obsTok != 0 {
			e.procEnd(p.obsTok, e.now)
			p.obsTok = 0
		}
		e.dropProc(p)
		if completed || r != nil {
			e.freeProcs = append(e.freeProcs, p)
		}
		e.dispatch()
	}()
	p.fn(p)
	completed = true
}

// drainProcPool terminates every parked process goroutine. run calls it on
// the way out so an idle or finished Env holds no goroutines; the next Run
// (or RunUntil segment) simply repopulates the pool on demand.
func (e *Env) drainProcPool() {
	for i, p := range e.freeProcs {
		p.exit = true
		p.resume <- struct{}{}
		e.freeProcs[i] = nil
	}
	e.freeProcs = e.freeProcs[:0]
}

// dispatch is the event loop under the baton-passing handoff: it runs on
// whichever goroutine currently holds control (the Run caller initially, a
// yielding or completing process thereafter). Callback and signal events
// execute inline with no goroutine switch at all; a process wake-up sends
// the baton directly to that process's goroutine and returns, costing one
// switch instead of the two (yielder→root, root→next) of a central loop.
// The event selection logic is identical either way, so execution order —
// and therefore determinism — is unchanged. When the run is over (queue
// drained, limit reached, failure, callback panic) the baton goes back to
// the root goroutine parked in run.
//
//perf:hot
func (e *Env) dispatch() {
	// One deferred recover covers every callback and stepper the loop below
	// runs inline. Hoisting it here — instead of wrapping each call — keeps
	// the per-event path free of defer setup while preserving both panic
	// protocols: a stepper panic becomes that process's failure (an error
	// from Run), a Schedule/After callback panic is carried to the root
	// goroutine and rethrown from Run. Either way the run is over, so the
	// recovering frame hands the baton straight back to the root.
	defer e.recoverDispatch()
	for e.failure == nil && !e.fnPanicked {
		var ev event
		if a := e.alarm; a != nil && e.alarmFirst(a) {
			if e.limit >= 0 && a.at > e.limit {
				e.now = e.limit
				break
			}
			a.armed = false
			e.nextAlarm()
			ev = event{at: a.at, seq: a.seq, do: a}
			e.now = a.at
		} else if e.fifoHead < len(e.fifo) {
			// Same-instant fast path. A heap entry at the current instant
			// can still precede the FIFO head if it was scheduled earlier
			// (smaller seq) while now was in its future.
			if len(e.heap) > 0 && e.heap[0].at == e.now && e.heap[0].seq < e.fifo[e.fifoHead].seq {
				ev = e.heapPop()
			} else {
				ev = e.fifo[e.fifoHead]
				e.fifo[e.fifoHead] = event{} // release the fn/proc references
				e.fifoHead++
				if e.fifoHead == len(e.fifo) {
					e.fifo = e.fifo[:0]
					e.fifoHead = 0
				}
			}
		} else if len(e.heap) > 0 {
			if e.limit >= 0 && e.heap[0].at > e.limit {
				e.now = e.limit
				break
			}
			ev = e.heapPop()
			e.now = ev.at
		} else {
			break
		}
		e.nEvents++
		if e.onEvent != nil {
			e.onEvent(ev.at)
		}
		if e.digest != nil {
			e.digest.fold(&ev)
		}
		switch do := ev.do.(type) {
		case *Proc:
			p := do
			p.waitKind = waitNone
			if p.step != nil {
				// Stepper: its continuation runs inline, no switch. curCont
				// marks the owner so the deferred recover above attributes a
				// panic to this process rather than to a plain callback.
				e.curCont = p
				p.step.Step()
				e.curCont = nil
				continue
			}
			e.goWakes++
			p.resume <- struct{}{}
			return
		case *Signal:
			do.Fire(e)
		case *Alarm:
			do.fn()
		default:
			ev.do.(eventFn)()
		}
	}
	e.rootWake <- struct{}{}
}

// recoverDispatch is dispatch's deferred panic handler. As a method rather
// than a closure literal it costs dispatch no allocation, and since it is
// the deferred function itself, recover works inside it.
func (e *Env) recoverDispatch() {
	r := recover()
	if r == nil {
		return
	}
	if p := e.curCont; p != nil {
		e.curCont = nil
		if e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		if p.tracked {
			p.Exit()
		}
	} else {
		e.fnPanicked = true
		e.fnPanic = r
	}
	e.rootWake <- struct{}{}
}

// yield returns control from the process to the event loop by dispatching
// the next event from this goroutine, then blocks the process until it is
// woken again. The arm call that registered the wake-up has already
// recorded the wait state for deadlock reports. The resume channel has
// capacity 1, so a dispatch that selects this very process's wake-up
// (possible when the wake was scheduled before yielding, as Sleep does)
// deposits the baton and falls through to the receive immediately.
//
//perf:hot
func (p *Proc) yield() {
	p.env.dispatch()
	<-p.resume
}

// Park suspends a goroutine-backed process until the wake-up an arm call
// just registered for it fires. It is how a blocking form is built from
// an arm form outside this package: "if arm(p) { p.Park() }". Steppers
// cannot park; their Step returns instead.
func (p *Proc) Park() {
	if p.resume == nil {
		panic("sim: Park called on stepper " + p.name)
	}
	p.yield()
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process is rescheduled after already-queued events
// at the same instant).
//
//perf:hot
func (p *Proc) Sleep(d time.Duration) {
	p.env.ReadyAfter(p, d)
	p.yield()
}

// Run executes events until the queue drains or a process panics. It
// returns an error if any process panicked or if processes remain blocked
// with no pending events (a deadlock).
func (e *Env) Run() error { return e.run(-1) }

// RunUntil executes events up to and including virtual time t.
// Processes still alive at t simply stop being scheduled; this is the
// normal way to run an open-ended simulation for a fixed horizon.
//
//lint:allow deadapi(the event-queue oracle runs the engine to a horizon)
func (e *Env) RunUntil(t Time) error { return e.run(t) }

func (e *Env) run(limit Time) error {
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	e.limit = limit
	defer func() {
		e.drainProcPool()
		e.running = false
	}()
	e.dispatch()
	<-e.rootWake
	if e.fnPanicked {
		r := e.fnPanic
		e.fnPanicked, e.fnPanic = false, nil
		panic(r)
	}
	if e.failure != nil {
		return e.failure
	}
	if limit < 0 && len(e.procs) > 0 {
		return e.deadlockError()
	}
	return nil
}

func (e *Env) deadlockError() error {
	var waits []string
	for _, p := range e.procs {
		waits = append(waits, fmt.Sprintf("%s (waiting: %s)", p.name, p.blockedOn()))
	}
	sort.Strings(waits)
	return fmt.Errorf("sim: deadlock, %d blocked process(es): %v", len(waits), waits)
}

// Signal is a broadcast one-shot event. Processes Wait on it; Fire releases
// all current and future waiters. The zero value is ready to use.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters at the current instant. Firing twice is a no-op.
// Fire must be called from inside the simulation (a process or callback).
// The waiter backing array is kept for reuse by a Reset signal.
//
//perf:hot
func (s *Signal) Fire(e *Env) {
	if s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	s.waiters = ws[:0]
	for i, p := range ws {
		if p.waitN > 0 {
			// ArmWaitAllPadded registration: only the last signal of
			// the set schedules the wake, padded if padFactor asks.
			if p.waitN--; p.waitN == 0 {
				at := e.now
				if p.padFactor > 0 {
					at += time.Duration(float64(at-p.padFrom) * p.padFactor)
					p.padFactor = 0
				}
				e.scheduleWake(p, at)
			}
		} else {
			e.scheduleWake(p, e.now)
		}
		ws[i] = nil
	}
}

// Reset returns a fired signal to its unfired state, keeping the waiter
// backing array. It is for owners that recycle signal-bearing structures:
// pooled fabric flows, and collective ops, whose handles carry a
// generation so that none waits on a reused op. The caller must guarantee
// no process still holds a reference expecting the previous firing.
func (s *Signal) Reset() {
	s.fired = false
	s.waiters = s.waiters[:0]
}

// Wait blocks the process until the signal fires. It returns immediately
// if the signal already fired.
//
//perf:hot
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (s *Signal) Wait(p *Proc) {
	if s.Arm(p) {
		p.yield()
	}
}

// NewStepper returns an untracked goroutine-free process: a control block
// whose wake-up events invoke step inline on whatever goroutine is
// dispatching, costing a function call where a goroutine-backed process
// costs a context switch. Untracked steppers drive engine-internal state
// machines on the hot path (the collective rings, samplers); they cannot
// block, so step advances the machine and re-arms via an arm form or
// Ready before returning. Such a stepper is not in the live-process set —
// a machine that stalls surfaces through whatever process waits on its
// result, not the deadlock report. Spawn starts a tracked stepper.
func (e *Env) NewStepper(name string, step func()) *Proc {
	return &Proc{env: e, name: name, step: stepFunc(step)}
}

// Stepper is a state machine driven by an embedded Proc; see
// InitStepperFor and Spawn.
type Stepper interface {
	Step()
}

// stepFunc adapts a NewStepper function to Stepper. A func value is
// pointer-shaped, so the conversion allocates nothing.
type stepFunc func()

func (f stepFunc) Step() { f() }

// InitStepperFor initializes p (typically a Proc embedded in s itself) as
// an untracked stepper whose wake-ups call s.Step(). Unlike NewStepper
// with a bound method value, wiring an interface costs no allocation —
// the pattern for pooled or per-op machines created on a hot path.
func (e *Env) InitStepperFor(p *Proc, name string, s Stepper) {
	p.env, p.name, p.step = e, name, s
}

// Spawn starts a tracked stepper named name: p (typically a Proc embedded
// in s itself) becomes a live process whose wake-ups call s.Step(). Like
// Go it joins the live set, reports its lifetime to the proc probe, and
// schedules its first step at the current instant in the (timestamp, seq)
// slot Go's spawn wake occupies, so replacing a Go process by a Spawned
// machine that arms the same wake-ups leaves the event stream unchanged.
// The machine calls p.Exit when it finishes. Spawn allocates nothing.
//
//perf:hot
func (e *Env) Spawn(p *Proc, name string, s Stepper) {
	e.InitStepperFor(p, name, s)
	p.tracked = true
	e.addProc(p)
	p.obsTok = 0
	if e.procStart != nil {
		p.obsTok = e.procStart(name, e.now)
	}
	e.Ready(p)
}

// Exit ends a tracked stepper started by Spawn: it leaves the live set and
// its lifetime closes at the current instant, as a Go process's does when
// its function returns. The machine must not be woken again.
//
//perf:hot
func (p *Proc) Exit() {
	e := p.env
	p.tracked = false
	if e.procEnd != nil && p.obsTok != 0 {
		e.procEnd(p.obsTok, e.now)
		p.obsTok = 0
	}
	e.dropProc(p)
}

// Ready schedules sp's next step at the current instant, in ordinary
// (timestamp, seq) order — the stepper equivalent of Go's spawn wake.
//
//perf:hot
func (e *Env) Ready(sp *Proc) {
	e.seq++
	e.enqueue(event{at: e.now, seq: e.seq, do: sp})
}

// ReadyAfter schedules sp's next step d from now — the arm form of Sleep,
// occupying the same (timestamp, seq) position a blocking process's
// Sleep(d) would. Negative durations are treated as zero.
//
//perf:hot
func (e *Env) ReadyAfter(sp *Proc, d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.enqueue(event{at: e.now + d, seq: e.seq, do: sp})
	sp.waitKind, sp.waitDur = waitSleep, d
}

// ArmWaitAllPadded waits on a set of signals with a proportional
// cool-down. It registers stepper sp on every unfired signal and returns
// true if at least one is pending, in which case sp steps once, at
// T + (T − from) × factor, where T is the instant the last signal fires:
// one wake however many signals are pending. The collective rings use it
// because their per-round protocol overhead is a fixed fraction of the
// round's transfer time. If every signal has already fired it registers
// nothing and returns false, and the caller continues inline.
//
//perf:hot
func ArmWaitAllPadded(sp *Proc, sigs []*Signal, from Time, factor float64) bool {
	pending := 0
	for _, s := range sigs {
		if !s.fired {
			s.waiters = append(s.waiters, sp)
			pending++
		}
	}
	if pending == 0 {
		return false
	}
	sp.waitN = int32(pending)
	sp.padFrom, sp.padFactor = from, factor
	sp.waitKind = waitSignal
	return true
}

// WaitGroup counts outstanding work items inside a simulation; Wait blocks
// until the count returns to zero. Unlike sync.WaitGroup it is not
// goroutine-safe — by design, since the engine is single-threaded.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: WaitGroup counter went negative")
	}
}

// Done decrements the counter, waking waiters when it reaches zero. The
// waiter backing array is kept for reuse by a re-Added group.
//
//perf:hot
func (w *WaitGroup) Done(e *Env) {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup counter went negative")
	}
	if w.n == 0 {
		ws := w.waiters
		w.waiters = ws[:0]
		for i, p := range ws {
			e.scheduleWake(p, e.now)
			ws[i] = nil
		}
	}
}

// Reset returns the group to a zero count, keeping the waiter backing
// array, for owners that recycle wait groups between runs; a group whose
// count never reached zero (work that was abandoned) is reset too. The
// caller guarantees that no process waits on it.
//
//perf:hot
func (w *WaitGroup) Reset() {
	w.n = 0
	w.waiters = w.waiters[:0]
}

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.Arm(p) {
		p.yield()
	}
}

// Arm registers stepper sp to step when the counter reaches zero and
// returns true; if the counter is already zero it registers nothing and
// returns false and the caller continues inline — the stepper counterpart
// of Wait.
//
//perf:hot
func (w *WaitGroup) Arm(sp *Proc) bool {
	if w.n == 0 {
		return false
	}
	w.waiters = append(w.waiters, sp)
	sp.waitKind = waitGroup
	return true
}

// Arm registers stepper sp to step when the signal fires and returns true;
// if it already fired it registers nothing and returns false — the
// stepper counterpart of Wait.
//
//perf:hot
func (s *Signal) Arm(sp *Proc) bool {
	if s.fired {
		return false
	}
	s.waiters = append(s.waiters, sp)
	sp.waitKind = waitSignal
	return true
}
