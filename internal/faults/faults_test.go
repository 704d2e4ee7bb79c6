package faults

import (
	"reflect"
	"testing"
	"time"

	"composable/internal/sim"
)

func bounds() Bounds {
	return Bounds{Slots: 12, SlotsPerDrawer: 8, Hosts: 3, Horizon: 30 * time.Second, MaxPermanentGPUs: 2}
}

func TestFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FromSeed(seed, bounds()), FromSeed(seed, bounds())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: FromSeed not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestPlanMTBFDeterministicAndDenser(t *testing.T) {
	b := bounds()
	a1, a2 := PlanMTBF(7, 5*time.Second, b), PlanMTBF(7, 5*time.Second, b)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("PlanMTBF not deterministic")
	}
	sparse := PlanMTBF(7, 20*time.Second, b)
	dense := PlanMTBF(7, time.Second, b)
	if len(dense.Events) <= len(sparse.Events) {
		t.Errorf("mtbf 1s plan (%d events) not denser than 20s plan (%d events)",
			len(dense.Events), len(sparse.Events))
	}
	if PlanMTBF(7, 0, b).Events != nil {
		t.Errorf("mtbf 0 should disable injection")
	}
}

func TestSanitizeIdempotentAndBounded(t *testing.T) {
	b := bounds()
	raw := Plan{Seed: 9, Events: []Event{
		{At: -time.Second, Kind: KindGPU, Target: 99},                                // clamp target+time
		{At: time.Second, Kind: KindSlotLink, Target: -4, Factor: 3.5},               // clamp factor
		{At: time.Second, Kind: KindHost, Target: 1},                                 // permanent host → forced repair
		{At: 2 * time.Second, Kind: "bogus", Target: 5},                              // unknown kind
		{At: 3 * time.Second, Kind: KindGPU, Target: 2},                              // permanent GPU 1
		{At: 4 * time.Second, Kind: KindGPU, Target: 3},                              // permanent GPU 2
		{At: 5 * time.Second, Kind: KindGPU, Target: 4},                              // over budget → healed
		{At: 3500 * time.Millisecond, Kind: KindGPU, Target: 2, Repair: time.Second}, // overlaps permanent
	}}
	once := Sanitize(raw, b)
	twice := Sanitize(once, b)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("Sanitize not idempotent:\n%+v\n%+v", once, twice)
	}
	permanentGPUs := 0
	for _, e := range once.Events {
		if e.Target < 0 || e.At < minFaultTime || e.At > b.Horizon {
			t.Errorf("unsanitized event %+v", e)
		}
		switch e.Kind {
		case KindSlotLink, KindHostLink:
			if e.Factor < 0 || e.Factor >= 1 {
				t.Errorf("bad factor %+v", e)
			}
		case KindGPU:
			if e.Permanent() {
				permanentGPUs++
			}
		case KindHost, KindDrawer:
			if e.Permanent() {
				t.Errorf("host/drawer fault left permanent: %+v", e)
			}
		default:
			t.Errorf("unknown kind survived: %+v", e)
		}
	}
	if permanentGPUs > b.MaxPermanentGPUs {
		t.Errorf("%d permanent GPU faults over budget %d", permanentGPUs, b.MaxPermanentGPUs)
	}
	// The overlapping retry of the permanently-failed GPU 2 must be gone.
	seen := 0
	for _, e := range once.Events {
		if e.Kind == KindGPU && e.Target == 2 {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("overlap on permanently-failed target not dropped (%d events)", seen)
	}
}

func TestInjectorDispatchAndLedger(t *testing.T) {
	env := sim.NewEnv()
	plan := Sanitize(Plan{Seed: 1, Events: []Event{
		{At: time.Second, Kind: KindSlotLink, Target: 3, Factor: 0, Repair: time.Second},
		{At: 2 * time.Second, Kind: KindGPU, Target: 5, Repair: 3 * time.Second},
		{At: 4 * time.Second, Kind: KindHost, Target: 1, Repair: time.Second},
	}}, bounds())

	var got []Record
	inj := NewInjector(env, plan, func(r Record) {
		if r.Kind == KindSlotLink && r.Factor != OutageFloor && r.Factor != 1 {
			t.Errorf("outage factor %v, want floor %v or 1", r.Factor, OutageFloor)
		}
		got = append(got, r)
	})
	inj.Arm()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, r := range got {
		order = append(order, string(r.Kind))
	}
	want := []string{"slot-link", "slot-link", "gpu", "host", "gpu", "host"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if !reflect.DeepEqual(got, inj.Records()) {
		t.Fatalf("handler saw %v, injector logged %v", got, inj.Records())
	}
	if inj.AppliedLedger() == "" {
		t.Fatal("empty applied ledger")
	}
}

// TestRenderGolden pins the exact bytes of the manual strconv/append
// renderers that replaced the fmt.Sprintf chains: Event.String,
// Record.String and the two fingerprint ledgers. These strings sit on the
// fingerprint path, so a formatting drift here is silent telemetry
// corruption — the goldens make it a test failure instead.
func TestRenderGolden(t *testing.T) {
	events := []Event{
		{At: 1500 * time.Millisecond, Kind: KindSlotLink, Target: 3, Factor: 0.25, Repair: 2 * time.Second},
		{At: 2 * time.Second, Kind: KindHostLink, Target: 1, Factor: OutageFloor, Repair: 500 * time.Millisecond},
		{At: 3 * time.Second, Kind: KindGPU, Target: 7},
		{At: 4 * time.Second, Kind: KindDrawer, Target: 0, Repair: 2 * time.Second},
		{At: 5*time.Second + 250*time.Millisecond, Kind: KindHost, Target: 2, Repair: time.Second},
		{At: time.Second, Kind: KindSlotLink, Target: 0, Factor: 0, Repair: time.Second},
	}
	wantEvents := []string{
		"1.5s slot-link[3] x0.25 repair+2s",
		"2s host-link[1] x0.0001 repair+500ms",
		"3s gpu[7] permanent",
		"4s drawer[0] repair+2s",
		"5.25s host[2] repair+1s",
		"1s slot-link[0] x0 repair+1s",
	}
	for i, e := range events {
		if got := e.String(); got != wantEvents[i] {
			t.Errorf("Event.String()[%d] = %q, want %q", i, got, wantEvents[i])
		}
	}

	records := []Record{
		{At: 1500 * time.Millisecond, Kind: KindSlotLink, Target: 3, Factor: 0.25},
		{At: 3500 * time.Millisecond, Kind: KindSlotLink, Target: 3, Factor: 1, Up: true},
		{At: 3 * time.Second, Kind: KindGPU, Target: 7},
		{At: 4 * time.Second, Kind: KindHost, Target: 2, Up: true},
	}
	wantRecords := []string{
		"1.5s FAIL slot-link[3] x0.25",
		"3.5s repair slot-link[3] x1",
		"3s FAIL gpu[7]",
		"4s repair host[2]",
	}
	for i, r := range records {
		if got := r.String(); got != wantRecords[i] {
			t.Errorf("Record.String()[%d] = %q, want %q", i, got, wantRecords[i])
		}
	}

	in := &Injector{records: records[:2]}
	wantApplied := "applied at=1500000000 kind=slot-link target=3 factor=0.25 up=0\n" +
		"applied at=3500000000 kind=slot-link target=3 factor=1 up=1\n"
	if got := in.AppliedLedger(); got != wantApplied {
		t.Errorf("AppliedLedger() = %q, want %q", got, wantApplied)
	}
}
