package orchestrator

import (
	"testing"
)

// syntheticView sets a scheduler up over a 2-host, 16-GPU fleet (2
// drawers × 8 slots) and brings its live View to a hand-made state: slots
// 0-2 free on host 0, slots 8-10 free detached, slots 3 and 12-15 held by
// one job on host 0, the rest down. Host 1 is the least loaded, so the
// load-spreading policies place there. The View carries the scheduler's
// fresh scratch.
func syntheticView(t *testing.T) View {
	t.Helper()
	f := testFleet(t, 2, 16, false)
	s, err := newScheduler(f, testStream(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Slots {
		switch {
		case i <= 3 || i >= 12:
			s.view.Slots[i].Host = 0
			if i == 3 || i >= 12 {
				s.slotJob[i] = 0
			}
		case i <= 7 || i == 11:
			s.slotFaulty[i] = true
		}
		s.syncSlot(i)
	}
	s.hostGPUs[0], s.hostJobs[0] = 5, 1
	return s.view
}

// dirtyScratch returns a policyScratch whose every buffer holds stale
// garbage from a pretend earlier placement: non-empty pick lists, a taken
// bitset with bits still set, non-zero drawer loads. A Place call that
// fails to reset any of these produces a wrong placement, which the
// equivalence test below turns into a failure.
func dirtyScratch() *policyScratch {
	return &policyScratch{
		picks: []int{99, 98, 97, 96, 95, 94, 93, 92},
		best:  []int{88, 87, 86, 85, 84, 83, 82, 81},
		cands: make([]SlotView, 16),
		taken: []bool{true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true},
		load:  []int{50, 60},
	}
}

// TestPolicyScratchResetEquivalence runs every built-in policy twice on
// the same View — once with a fresh scratch and once with a deliberately
// dirty one — and requires identical placements.
// This is the direct unit-level guard the fingerprint sweeps only cover
// end-to-end: a missing reset in any scratch buffer fails here.
func TestPolicyScratchResetEquivalence(t *testing.T) {
	for _, p := range Policies() {
		for gpus := 2; gpus <= 6; gpus++ {
			r := Request{Job: 1, Tenant: 0, GPUs: gpus}

			clean := syntheticView(t)
			hostC, picksC, okC := p.Place(clean, r)
			picksCopy := append([]int(nil), picksC...)

			dirty := syntheticView(t)
			dirty.scratch = dirtyScratch()
			hostD, picksD, okD := p.Place(dirty, r)

			if okC != okD || (okC && hostC != hostD) {
				t.Errorf("%s gpus=%d: clean (host %d, ok %v) vs dirty scratch (host %d, ok %v)",
					p.Name(), gpus, hostC, okC, hostD, okD)
				continue
			}
			if !okC {
				continue
			}
			if len(picksCopy) != len(picksD) {
				t.Errorf("%s gpus=%d: clean picks %v vs dirty %v", p.Name(), gpus, picksCopy, picksD)
				continue
			}
			for i := range picksCopy {
				if picksCopy[i] != picksD[i] {
					t.Errorf("%s gpus=%d: clean picks %v vs dirty %v", p.Name(), gpus, picksCopy, picksD)
					break
				}
			}
		}
	}
}

// TestPolicyScratchReuseAcrossCalls drives repeated Place calls through
// one shared scratch (the scheduler's usage pattern) and checks each call
// against a fresh-scratch reference: buffers must carry no state between
// placements.
func TestPolicyScratchReuseAcrossCalls(t *testing.T) {
	sc := &policyScratch{}
	for _, p := range Policies() {
		for _, gpus := range []int{4, 2, 6, 3, 2} {
			r := Request{Job: 0, Tenant: 0, GPUs: gpus}
			ref := syntheticView(t)
			refHost, refPicks, refOK := p.Place(ref, r)
			refCopy := append([]int(nil), refPicks...)

			v := syntheticView(t)
			v.scratch = sc
			host, picks, ok := p.Place(v, r)
			if ok != refOK || (ok && host != refHost) {
				t.Fatalf("%s gpus=%d: shared-scratch (host %d, ok %v) vs reference (host %d, ok %v)",
					p.Name(), gpus, host, ok, refHost, refOK)
			}
			for i := range refCopy {
				if picks[i] != refCopy[i] {
					t.Fatalf("%s gpus=%d: shared-scratch picks %v vs reference %v",
						p.Name(), gpus, picks, refCopy)
				}
			}
		}
	}
}

// TestCheckPlacementSeenEpoch exercises the epoch-stamped duplicate
// detector that replaced checkPlacement's per-call map: repeated calls
// must not leak "seen" stamps into each other (a stale stamp would reject
// a valid placement), while a genuine duplicate in one call must still be
// caught.
func TestCheckPlacementSeenEpoch(t *testing.T) {
	s, err := newScheduler(testFleet(t, 2, 8, false), testStream(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := &jobState{spec: JobSpec{ID: 0, GPUs: 2}}

	// The same slots may be validated any number of times across calls.
	for i := 0; i < 3; i++ {
		if err := s.checkPlacement(js, 0, []int{0, 1}); err != nil {
			t.Fatalf("call %d: valid placement rejected: %v", i, err)
		}
	}
	// A duplicate within one call is still an error.
	if err := s.checkPlacement(js, 0, []int{3, 3}); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	// And the failed call's stamps must not poison the next valid one.
	if err := s.checkPlacement(js, 0, []int{3, 4}); err != nil {
		t.Fatalf("valid placement after duplicate rejected: %v", err)
	}
}
