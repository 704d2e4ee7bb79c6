package sim

import (
	"fmt"
	"time"
)

// Resource is a counting semaphore with a FIFO wait queue: the standard
// model for exclusive or capacity-limited hardware (a GPU's compute engine,
// a storage controller's queue slots, CPU cores).
type Resource struct {
	name     string
	capacity int
	inUse    int
	waiters  []resWaiter
	// busy accounting for utilization metrics.
	accumBusy  Time
	lastChange Time
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive", name))
	}
	return &Resource{name: name, capacity: capacity}
}

// Acquire blocks the process until n units are available, then takes them.
// Requests are granted strictly FIFO, so a large request cannot be starved
// by a stream of small ones.
//
//perf:hot
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (r *Resource) Acquire(p *Proc, n int) {
	if r.Arm(p, n) {
		p.yield()
	}
}

// Arm is Acquire for steppers: it takes n units and returns false if they
// are free now (the caller continues inline), or queues sp FIFO and
// returns true, in which case sp steps once the units have been granted
// to it.
//
//perf:hot
func (r *Resource) Arm(sp *Proc, n int) bool {
	if n <= 0 || n > r.capacity {
		//lint:allow hotalloc(panic path only: formats a misuse report, never runs in steady state)
		panic(fmt.Sprintf("sim: acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.take(sp.env, n)
		return false
	}
	r.waiters = append(r.waiters, resWaiter{p: sp, n: n})
	sp.waitKind, sp.waitName = waitResource, r.name
	return true
}

// HoldOp is the caller-held state of one ArmHold: acquire, hold, release.
// The zero value is ready, and it returns to zero when the hold ends, so
// one HoldOp serves any number of holds in sequence.
type HoldOp struct{ stage uint8 }

// Hold acquires n units, keeps them for d of virtual time, and releases
// them — the shape of occupying a device for a computed duration (a GPU
// kernel, a CPU core burst).
func (r *Resource) Hold(p *Proc, n int, d time.Duration) {
	var h HoldOp
	for r.ArmHold(p, &h, n, d) {
		p.yield()
	}
}

// ArmHold is Hold for steppers. Call it with the same arguments on every
// step until it returns false: each true return has armed sp's next wake
// (the grant, then the end of the hold) at the position Hold's would be;
// the false return has released the units.
//
//perf:hot
func (r *Resource) ArmHold(sp *Proc, h *HoldOp, n int, d time.Duration) bool {
	switch h.stage {
	case 0:
		h.stage = 1
		if r.Arm(sp, n) {
			return true
		}
		fallthrough
	case 1:
		h.stage = 2
		sp.env.ReadyAfter(sp, d)
		return true
	default:
		h.stage = 0
		r.Release(sp.env, n)
		return false
	}
}

// Release returns n units and wakes as many FIFO waiters as now fit.
//
//perf:hot
func (r *Resource) Release(e *Env, n int) {
	if n <= 0 || n > r.inUse {
		//lint:allow hotalloc(panic path only: formats a misuse report, never runs in steady state)
		panic(fmt.Sprintf("sim: release %d of resource %q (in use %d)", n, r.name, r.inUse))
	}
	r.account(e)
	r.inUse -= n
	// Pop admitted waiters by copying the tail down rather than reslicing
	// the head away: the backing array keeps its capacity, so the next
	// Acquire appends without reallocating.
	woken := 0
	for woken < len(r.waiters) {
		w := r.waiters[woken]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		e.scheduleWake(w.p, e.now)
		woken++
	}
	if woken > 0 {
		m := copy(r.waiters, r.waiters[woken:])
		for i := m; i < len(r.waiters); i++ {
			r.waiters[i] = resWaiter{}
		}
		r.waiters = r.waiters[:m]
	}
}

//perf:hot
func (r *Resource) take(e *Env, n int) {
	r.account(e)
	r.inUse += n
}

// AddBusy credits the resource with extra busy time without occupying it,
// for activity the resource performs that is not modeled as a hold (e.g.
// NCCL kernels keeping a GPU "utilized" while the training process waits
// on a collective). The credit is clamped so utilization cannot exceed 1.
func (r *Resource) AddBusy(e *Env, d Time) {
	if d <= 0 {
		return
	}
	r.account(e)
	r.accumBusy += d
	if r.accumBusy > e.now {
		r.accumBusy = e.now
	}
}

// account accrues busy time weighted by occupancy since the last change.
//
//perf:hot
func (r *Resource) account(e *Env) {
	dt := e.now - r.lastChange
	if dt > 0 && r.inUse > 0 {
		r.accumBusy += Time(float64(dt) * float64(r.inUse) / float64(r.capacity))
	}
	r.lastChange = e.now
}

// UtilizationSince returns the busy fraction accrued after mark, where mark
// is a previous snapshot from BusySnapshot. Used by periodic samplers.
func (r *Resource) UtilizationSince(e *Env, markTime, markBusy Time) (frac float64) {
	busy := r.accumBusy
	dt := e.now - r.lastChange
	if dt > 0 && r.inUse > 0 {
		busy += Time(float64(dt) * float64(r.inUse) / float64(r.capacity))
	}
	window := e.now - markTime
	if window <= 0 {
		return 0
	}
	frac = float64(busy-markBusy) / float64(window)
	// AddBusy credits (e.g. NCCL kernels) can land in the same window as
	// held-occupancy time; a utilization is still a fraction.
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return frac
}

// BusySnapshot returns (now, accumulated busy time) for use with
// UtilizationSince.
func (r *Resource) BusySnapshot(e *Env) (Time, Time) {
	busy := r.accumBusy
	dt := e.now - r.lastChange
	if dt > 0 && r.inUse > 0 {
		busy += Time(float64(dt) * float64(r.inUse) / float64(r.capacity))
	}
	return e.now, busy
}

// Queue is an unbounded FIFO channel between processes: producers Put items
// and consumers Get them, blocking when empty. It models staging buffers
// such as a data loader's ready-batch queue.
type Queue struct {
	name    string
	items   []interface{}
	waiters []*Proc
	closed  bool
}

// NewQueue creates an empty queue.
func NewQueue(name string) *Queue { return &Queue{name: name} }

// Put appends an item and wakes one waiting consumer.
func (q *Queue) Put(e *Env, item interface{}) {
	if q.closed {
		panic(fmt.Sprintf("sim: put on closed queue %q", q.name))
	}
	q.items = append(q.items, item)
	q.wakeOne(e)
}

// Close marks the queue as finished; blocked and future Gets return
// (nil, false) once drained.
func (q *Queue) Close(e *Env) {
	q.closed = true
	for len(q.waiters) > 0 {
		q.wakeOne(e)
	}
}

//perf:hot
func (q *Queue) wakeOne(e *Env) {
	if len(q.waiters) == 0 {
		return
	}
	p := q.waiters[0]
	m := copy(q.waiters, q.waiters[1:])
	q.waiters[m] = nil
	q.waiters = q.waiters[:m]
	e.scheduleWake(p, e.now)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false when the queue is closed and drained.
//
//perf:hot
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (q *Queue) Get(p *Proc) (item interface{}, ok bool) {
	for {
		item, ok, armed := q.ArmGet(p)
		if !armed {
			return item, ok
		}
		p.yield()
	}
}

// ArmGet is Get for steppers. If an item is buffered it removes and
// returns it (ok true); if the queue is closed and drained it returns ok
// false. Otherwise it queues sp for the next Put or Close and returns
// armed true; sp then calls ArmGet again on that step.
//
//perf:hot
func (q *Queue) ArmGet(sp *Proc) (item interface{}, ok, armed bool) {
	if len(q.items) == 0 {
		if q.closed {
			return nil, false, false
		}
		q.waiters = append(q.waiters, sp)
		sp.waitKind, sp.waitName = waitQueue, q.name
		return nil, false, true
	}
	item = q.items[0]
	m := copy(q.items, q.items[1:])
	q.items[m] = nil
	q.items = q.items[:m]
	return item, true, false
}
