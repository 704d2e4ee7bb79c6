package sim

import "fmt"

// EventKind is the payload kind of a dispatched event.
type EventKind uint8

// Event payload kinds, as folded into a Digest.
const (
	// EventProc wakes a process or stepper.
	EventProc EventKind = iota + 1
	// EventSignal fires a deferred Signal (ScheduleSignal, AfterSignal).
	EventSignal
	// EventFn runs a Schedule/After callback or fires an Alarm.
	EventFn
)

func (k EventKind) String() string {
	switch k {
	case EventProc:
		return "proc"
	case EventSignal:
		return "signal"
	case EventFn:
		return "fn"
	}
	return "unknown"
}

// EventRecord describes one dispatched event: its time, its scheduling
// sequence number, its payload kind and, for process wake-ups, the
// process name.
type EventRecord struct {
	At   Time
	Seq  uint64
	Kind EventKind
	Proc string
}

func (r EventRecord) String() string {
	if r.Kind == EventProc {
		return fmt.Sprintf("%v seq=%d %s %q", r.At, r.Seq, r.Kind, r.Proc)
	}
	return fmt.Sprintf("%v seq=%d %s", r.At, r.Seq, r.Kind)
}

// Digest is a rolling 64-bit FNV-1a hash over every event an environment
// dispatches (see Env.SetDigest). Two runs with equal digests took the
// same path through the event loop, event by event — a stronger check
// than equal end results, which different event orders can reach.
type Digest struct {
	sum uint64
	n   uint64
	// Keep, when true, additionally retains every folded record in Events,
	// for reporting where two runs diverged.
	Keep   bool
	Events []EventRecord
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// SetDigest installs d to fold every event the loop dispatches, in
// dispatch order; pass nil to remove it. Like the other probes it is
// nil-checked, so it costs one branch per event when off.
func (e *Env) SetDigest(d *Digest) {
	if d != nil && d.n == 0 {
		d.sum = fnvOffset
	}
	e.digest = d
}

// Sum returns the digest over the events folded so far.
func (d *Digest) Sum() uint64 { return d.sum }

// Count returns the number of events folded so far.
func (d *Digest) Count() uint64 { return d.n }

// fold hashes one dispatched event.
//
//perf:hot
func (d *Digest) fold(ev *event) {
	rec := EventRecord{At: ev.at, Seq: ev.seq}
	switch do := ev.do.(type) {
	case *Proc:
		rec.Kind, rec.Proc = EventProc, do.name
	case *Signal:
		rec.Kind = EventSignal
	default:
		rec.Kind = EventFn
	}
	h := d.sum
	h = fnvWord(h, uint64(rec.At))
	h = fnvWord(h, rec.Seq)
	h = (h ^ uint64(rec.Kind)) * fnvPrime
	for i := 0; i < len(rec.Proc); i++ {
		h = (h ^ uint64(rec.Proc[i])) * fnvPrime
	}
	d.sum = h
	d.n++
	if d.Keep {
		d.Events = append(d.Events, rec)
	}
}

// fnvWord folds the eight bytes of v, low byte first.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}
