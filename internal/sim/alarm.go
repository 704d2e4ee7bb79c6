package sim

// Alarm is a re-armable timer that lives outside the event queue. An owner
// whose one deadline keeps moving — the fabric's next flow completion moves
// at every allocation change — would otherwise enqueue a fresh event per
// move and leave every superseded one on the heap to fire as a no-op. An
// alarm holds at most one pending instance: Set replaces it, Stop drops
// it, and a replaced instance is never dispatched.
//
// The pending instance takes the (timestamp, seq) position the equivalent
// Schedule would have: Set consumes one sequence number, and the loop
// merges the earliest armed alarm with the same-instant FIFO and the heap.
// Its dispatch counts in EventCount, reaches the event probe and folds
// into the digest as an EventFn, and RunUntil's horizon holds it back like
// any other event.
type Alarm struct {
	env   *Env
	fn    func()
	at    Time
	seq   uint64
	armed bool
}

func (*Alarm) isEvent() {}

// NewAlarm returns a disarmed alarm that calls fn, inline on the
// dispatching goroutine, each time it fires.
func (e *Env) NewAlarm(fn func()) *Alarm {
	a := &Alarm{env: e, fn: fn}
	e.alarms = append(e.alarms, a)
	return a
}

// Set arms the alarm for absolute virtual time at, replacing any pending
// instance. Times in the past are clamped to the current instant.
//
//perf:hot
func (a *Alarm) Set(at Time) {
	e := a.env
	if at < e.now {
		at = e.now
	}
	e.seq++
	a.at, a.seq, a.armed = at, e.seq, true
	if next := e.alarm; next == nil || alarmBefore(a, next) {
		e.alarm = a
	} else if next == a {
		e.nextAlarm()
	}
}

// Stop disarms the alarm; its pending instance, if any, never fires.
//
//perf:hot
func (a *Alarm) Stop() {
	if !a.armed {
		return
	}
	a.armed = false
	if a.env.alarm == a {
		a.env.nextAlarm()
	}
}

// Pending returns the instant the alarm is armed for and whether it is
// armed at all.
func (a *Alarm) Pending() (Time, bool) { return a.at, a.armed }

func alarmBefore(a, b *Alarm) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// nextAlarm finds the earliest armed alarm, the only one dispatch looks
// at. An environment holds one alarm per owner (one per fabric), so the
// scan is short.
//
//perf:hot
func (e *Env) nextAlarm() {
	e.alarm = nil
	for _, a := range e.alarms {
		if a.armed && (e.alarm == nil || alarmBefore(a, e.alarm)) {
			e.alarm = a
		}
	}
}

// alarmFirst reports whether armed alarm a precedes the heads of both
// event queues in (timestamp, seq) order.
//
//perf:hot
func (e *Env) alarmFirst(a *Alarm) bool {
	if e.fifoHead < len(e.fifo) {
		if f := &e.fifo[e.fifoHead]; f.at < a.at || (f.at == a.at && f.seq < a.seq) {
			return false
		}
	}
	if len(e.heap) > 0 {
		if h := &e.heap[0]; h.at < a.at || (h.at == a.at && h.seq < a.seq) {
			return false
		}
	}
	return true
}
