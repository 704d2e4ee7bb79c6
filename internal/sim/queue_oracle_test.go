package sim_test

import (
	"container/heap"
	"math/rand"
	"testing"

	"composable/internal/sim"
	"composable/internal/sim/simtest"
)

// The event-queue oracle: a container/heap reference of the engine's
// ordering contract, driven by the same random schedules as sim.Env.
//
// The contract fits in one priority queue. Every Schedule and every
// Alarm.Set consumes the next sequence number; an event whose time is in
// the past is clamped to now; events dispatch in (time, seq) order. The
// engine's same-instant FIFO is nothing but the tail of that order: an
// event scheduled at now has the largest seq so far. An alarm has at most
// one pending instance: Set replaces it and Stop drops it, and a replaced
// or dropped instance is never dispatched. RunUntil(t) dispatches every
// event at or before t and leaves the clock at t unless the queue drained
// first.

// queueModel is what a random schedule drives: the engine or the
// reference.
type queueModel interface {
	Now() sim.Time
	AddAlarm(fn func())
	Schedule(at sim.Time, fn func())
	SetAlarm(i int, at sim.Time)
	StopAlarm(i int)
	AlarmPending(i int) (sim.Time, bool)
	RunUntil(t sim.Time) error
	Run() error
}

// refEvent is one reference queue entry; alarm >= 0 marks an alarm
// instance, live while gen matches the alarm's current generation.
type refEvent struct {
	at    sim.Time
	seq   uint64
	fn    func()
	alarm int
	gen   uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type refAlarm struct {
	fn    func()
	at    sim.Time
	gen   uint64
	armed bool
}

// refQueue is the reference model.
type refQueue struct {
	now    sim.Time
	seq    uint64
	h      refHeap
	alarms []refAlarm
}

func (q *refQueue) Now() sim.Time { return q.now }

func (q *refQueue) AddAlarm(fn func()) { q.alarms = append(q.alarms, refAlarm{fn: fn}) }

// push enqueues one entry and returns its (clamped) time.
func (q *refQueue) push(at sim.Time, fn func(), alarm int, gen uint64) sim.Time {
	if at < q.now {
		at = q.now
	}
	q.seq++
	heap.Push(&q.h, refEvent{at: at, seq: q.seq, fn: fn, alarm: alarm, gen: gen})
	return at
}

func (q *refQueue) Schedule(at sim.Time, fn func()) { q.push(at, fn, -1, 0) }

func (q *refQueue) SetAlarm(i int, at sim.Time) {
	a := &q.alarms[i]
	a.gen++
	a.armed = true
	a.at = q.push(at, a.fn, i, a.gen)
}

func (q *refQueue) StopAlarm(i int) {
	q.alarms[i].gen++
	q.alarms[i].armed = false
}

func (q *refQueue) AlarmPending(i int) (sim.Time, bool) {
	return q.alarms[i].at, q.alarms[i].armed
}

// live drops dead alarm instances off the top and reports whether an
// event remains.
func (q *refQueue) live() bool {
	for len(q.h) > 0 {
		top := q.h[0]
		if top.alarm < 0 || q.alarms[top.alarm].gen == top.gen {
			return true
		}
		heap.Pop(&q.h)
	}
	return false
}

func (q *refQueue) run(limit sim.Time) {
	for q.live() {
		if limit >= 0 && q.h[0].at > limit {
			q.now = limit
			return
		}
		ev := heap.Pop(&q.h).(refEvent)
		q.now = ev.at
		if ev.alarm >= 0 {
			q.alarms[ev.alarm].armed = false
		}
		ev.fn()
	}
}

func (q *refQueue) RunUntil(t sim.Time) error { q.run(t); return nil }
func (q *refQueue) Run() error                { q.run(-1); return nil }

// envQueue adapts sim.Env to queueModel.
type envQueue struct {
	env    *sim.Env
	alarms []*sim.Alarm
}

func (q *envQueue) Now() sim.Time                       { return q.env.Now() }
func (q *envQueue) AddAlarm(fn func())                  { q.alarms = append(q.alarms, q.env.NewAlarm(fn)) }
func (q *envQueue) Schedule(at sim.Time, fn func())     { q.env.Schedule(at, fn) }
func (q *envQueue) SetAlarm(i int, at sim.Time)         { q.alarms[i].Set(at) }
func (q *envQueue) StopAlarm(i int)                     { q.alarms[i].Stop() }
func (q *envQueue) AlarmPending(i int) (sim.Time, bool) { return q.alarms[i].Pending() }
func (q *envQueue) RunUntil(t sim.Time) error           { return q.env.RunUntil(t) }
func (q *envQueue) Run() error                          { return q.env.Run() }

// schedule is one random schedule: every dispatched callback draws its
// follow-up actions from rng, so two models that dispatch the same events
// in the same order make the same draws, and the first ordering
// difference shows up as a differing record. Each Schedule and Set gets
// the sequence number the contract assigns it, counted here, as its
// label; a callback records its dispatch time and label.
type schedule struct {
	q      queueModel
	rng    *rand.Rand
	budget int
	seq    uint64
	// alarmSeq is the label of each alarm's latest Set.
	alarmSeq []uint64
	recs     []sim.EventRecord
	// Coverage: alarm dispatches, Sets that replaced a pending instance
	// (at its own deadline or another), and Stops of a pending one.
	fired, replaced, sameDeadline, stopped int
}

// delays favour collisions: equal instants, equal deadlines, the past.
var oracleDelays = []sim.Time{-1, 0, 0, 1, 1, 2, 3, 5, 8}

func (s *schedule) delay() sim.Time { return oracleDelays[s.rng.Intn(len(oracleDelays))] }

func (s *schedule) plain() {
	s.seq++
	label := s.seq
	s.q.Schedule(s.q.Now()+s.delay(), func() {
		s.recs = append(s.recs, sim.EventRecord{At: s.q.Now(), Seq: label, Kind: sim.EventFn})
		s.act()
	})
}

func (s *schedule) fireAlarm(i int) {
	s.fired++
	s.recs = append(s.recs, sim.EventRecord{At: s.q.Now(), Seq: s.alarmSeq[i], Kind: sim.EventFn})
	s.act()
}

// act performs 1–3 random actions, while the budget lasts.
func (s *schedule) act() {
	for k := 1 + s.rng.Intn(3); k > 0 && s.budget > 0; k-- {
		s.budget--
		i := s.rng.Intn(len(s.alarmSeq))
		switch r := s.rng.Intn(10); {
		case r < 5:
			s.plain()
		case r < 8:
			at := s.q.Now() + s.delay()
			if pending, ok := s.q.AlarmPending(i); ok {
				s.replaced++
				if r == 7 {
					at = pending // re-Set at the pending deadline
				}
				if at == pending {
					s.sameDeadline++
				}
			}
			s.seq++
			s.alarmSeq[i] = s.seq
			s.q.SetAlarm(i, at)
		default:
			if _, ok := s.q.AlarmPending(i); ok {
				s.stopped++
			}
			s.q.StopAlarm(i)
		}
	}
}

// runSchedule plays the random schedule for seed on q, with the given
// number of alarms, in RunUntil segments and then to the end.
func runSchedule(t *testing.T, seed int64, q queueModel, alarms int) *schedule {
	t.Helper()
	s := &schedule{q: q, rng: rand.New(rand.NewSource(seed)), budget: 400, alarmSeq: make([]uint64, alarms)}
	for i := 0; i < alarms; i++ {
		q.AddAlarm(func() { s.fireAlarm(i) })
	}
	for i := 0; i < 3; i++ {
		s.plain()
	}
	for horizon := sim.Time(4); horizon <= 40; horizon += 4 + sim.Time(seed%3) {
		if err := q.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if q.Now() != horizon && s.budget > 0 {
			s.plain() // the queue drained early: restart it
		}
	}
	if err := q.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEventQueueOracle drives the engine and the reference with the same
// random schedules — callbacks scheduling at now, in the past and in the
// future, alarms Set, re-Set at equal instants and deadlines, and Stopped
// — and requires identical dispatch streams, reporting the first
// divergent event. The engine's own digest must list the same events:
// one sequence number per Schedule or Set, and every alarm dispatch
// counted and folded as an EventFn.
func TestEventQueueOracle(t *testing.T) {
	var events, fired, replaced, sameDeadline, stopped int
	for seed := int64(1); seed <= 300; seed++ {
		alarms := 1 + int(seed%3)
		ref := runSchedule(t, seed, &refQueue{}, alarms)
		env := sim.NewEnv()
		dg := &sim.Digest{Keep: true}
		env.SetDigest(dg)
		eng := runSchedule(t, seed, &envQueue{env: env}, alarms)

		if d := simtest.FirstDivergence(ref.recs, eng.recs); d != nil {
			t.Fatalf("seed %d: engine departs from the reference (a = reference, b = engine):\n%v", seed, d)
		}
		if d := simtest.FirstDivergence(eng.recs, dg.Events); d != nil {
			t.Fatalf("seed %d: digest disagrees with the dispatched callbacks (a = callbacks, b = digest):\n%v", seed, d)
		}
		if env.EventCount() != uint64(len(eng.recs)) {
			t.Fatalf("seed %d: EventCount %d, %d events dispatched", seed, env.EventCount(), len(eng.recs))
		}
		events += len(eng.recs)
		fired += eng.fired
		replaced += eng.replaced
		sameDeadline += eng.sameDeadline
		stopped += eng.stopped
	}
	t.Logf("%d events, %d alarm dispatches, %d pending instances replaced (%d at their own deadline), %d stopped",
		events, fired, replaced, sameDeadline, stopped)
	if events < 300*100 || fired < 1000 || sameDeadline < 100 || stopped < 1000 {
		t.Fatal("the random schedules are too thin to exercise the queue")
	}
}
