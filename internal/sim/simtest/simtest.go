// Package simtest holds test helpers for simulations built on package sim:
// event-digest comparison of two setups with a report of where they
// diverged, and a tracked-stepper loop for pitting a primitive's arm form
// against its blocking form.
package simtest

import (
	"fmt"
	"strings"
	"testing"

	"composable/internal/sim"
)

// Setup builds a simulation on env and runs it. It must be deterministic:
// Compare may run it twice.
type Setup func(env *sim.Env) error

// Context is how many events a Divergence shows before the first
// differing one.
const Context = 8

// Divergence is the first event at which two runs' event streams differ.
type Divergence struct {
	// Index is the position of the first differing event in dispatch
	// order.
	Index int
	// A and B are that event in each run; nil when the run had already
	// ended.
	A, B *sim.EventRecord
	// Before holds up to Context events, common to both runs, that
	// precede it.
	Before []sim.EventRecord
}

func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "event streams diverge at event %d:\n", d.Index)
	for i, r := range d.Before {
		fmt.Fprintf(&b, "    #%d %v\n", d.Index-len(d.Before)+i, r)
	}
	side := func(name string, r *sim.EventRecord) {
		if r == nil {
			fmt.Fprintf(&b, "  %s: (run ended)\n", name)
			return
		}
		fmt.Fprintf(&b, "  %s: #%d %v\n", name, d.Index, *r)
	}
	side("a", d.A)
	side("b", d.B)
	return b.String()
}

// digest runs setup on a fresh environment with a digest attached and
// returns it; keep retains every event record.
func digest(setup Setup, keep bool) (*sim.Digest, error) {
	env := sim.NewEnv()
	d := &sim.Digest{Keep: keep}
	env.SetDigest(d)
	if err := setup(env); err != nil {
		return nil, err
	}
	return d, nil
}

// Compare runs a and b, each on a fresh environment with a digest
// attached, and returns the common digest when their event streams are
// identical. Otherwise it runs both again keeping every event record and
// returns a *Divergence naming the first differing event, with its time
// and process name, and the Context events before it. A setup's own error
// is returned as is.
func Compare(a, b Setup) (*sim.Digest, error) {
	da, err := digest(a, false)
	if err != nil {
		return nil, err
	}
	db, err := digest(b, false)
	if err != nil {
		return nil, err
	}
	if da.Sum() == db.Sum() && da.Count() == db.Count() {
		return da, nil
	}
	if da, err = digest(a, true); err != nil {
		return nil, err
	}
	if db, err = digest(b, true); err != nil {
		return nil, err
	}
	if d := FirstDivergence(da.Events, db.Events); d != nil {
		return nil, d
	}
	return nil, fmt.Errorf("simtest: digests differ (%#x/%d vs %#x/%d) but the kept records match: a setup is not deterministic",
		da.Sum(), da.Count(), db.Sum(), db.Count())
}

// FirstDivergence returns the first position at which the two record
// streams differ, or nil if they are identical. Compare reports through
// it, and so do oracles that pit the engine against a reference model.
func FirstDivergence(a, b []sim.EventRecord) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return nil
	}
	d := &Divergence{Index: i}
	if i < len(a) {
		d.A = &a[i]
	}
	if i < len(b) {
		d.B = &b[i]
	}
	from := i - Context
	if from < 0 {
		from = 0
	}
	d.Before = append([]sim.EventRecord(nil), a[from:i]...)
	return d
}

// loop is a tracked stepper that performs a fixed number of operations in
// sequence through an arm form: the stepper counterpart of a Go process
// running "for round := range rounds { block(p, round) }".
type loop struct {
	proc   sim.Proc
	rounds int
	round  int
	arm    func(sp *sim.Proc, round int) bool
}

// SpawnLoop starts a tracked stepper named name that performs rounds
// operations in sequence. arm is called on every step with the current
// round; it returns true while that round's operation is armed and false
// once it has completed, after which the next round starts in the same
// step. The stepper exits after the last round.
func SpawnLoop(env *sim.Env, name string, rounds int, arm func(sp *sim.Proc, round int) bool) {
	l := &loop{rounds: rounds, arm: arm}
	env.Spawn(&l.proc, name, l)
}

// Step advances the loop.
func (l *loop) Step() {
	for l.round < l.rounds {
		if l.arm(&l.proc, l.round) {
			return
		}
		l.round++
	}
	l.proc.Exit()
}

// Worker builds one contended scenario on env — the shared objects and
// the background processes competing for them — and returns the worker's
// operation in blocking form and in arm form, both bound to those objects.
// The arm form follows SpawnLoop's protocol.
type Worker func(env *sim.Env) (block func(p *sim.Proc, round int), arm func(sp *sim.Proc, round int) bool)

// CheckArmMatchesBlock runs w's scenario twice: once with the worker as a
// Go process named "worker" calling block for each of rounds rounds, once
// as a tracked stepper of the same name driven by arm. It fails t unless
// both runs dispatch identical event streams, and returns the digest.
func CheckArmMatchesBlock(t testing.TB, rounds int, w Worker) *sim.Digest {
	t.Helper()
	goroutine := func(env *sim.Env) error {
		block, _ := w(env)
		env.Go("worker", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				block(p, r)
			}
		})
		return env.Run()
	}
	stepper := func(env *sim.Env) error {
		_, arm := w(env)
		SpawnLoop(env, "worker", rounds, arm)
		return env.Run()
	}
	d, err := Compare(goroutine, stepper)
	if err != nil {
		t.Fatalf("arm form vs blocking form: %v", err)
	}
	return d
}
