package invariant

import (
	"strings"
	"testing"
	"time"

	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/orchestrator"
)

func ref(d, s int) falcon.SlotRef { return falcon.SlotRef{Drawer: d, Slot: s} }

func TestOrchestratorProbeCleanLifecycle(t *testing.T) {
	s := New()
	probe := s.OrchestratorProbe()
	slots := []falcon.SlotRef{ref(0, 0), ref(0, 1)}
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: 0, Job: 0, Host: -1})
	probe(orchestrator.Event{Kind: orchestrator.EventPlace, At: time.Second, Job: 0, Host: 1, Slots: slots, Moves: 2})
	probe(orchestrator.Event{Kind: orchestrator.EventLaunch, At: 2 * time.Second, Job: 0, Host: 1, Slots: slots})
	probe(orchestrator.Event{Kind: orchestrator.EventFinish, At: 5 * time.Second, Job: 0, Host: 1, Slots: slots})
	if err := s.Err(); err != nil {
		t.Fatalf("clean lifecycle reported violations: %v", err)
	}
}

func TestOrchestratorProbeDoubleAssignment(t *testing.T) {
	s := New()
	probe := s.OrchestratorProbe()
	shared := []falcon.SlotRef{ref(0, 0)}
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: 0, Job: 0, Host: -1})
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: 0, Job: 1, Host: -1})
	probe(orchestrator.Event{Kind: orchestrator.EventPlace, At: 0, Job: 0, Host: 0, Slots: shared})
	probe(orchestrator.Event{Kind: orchestrator.EventPlace, At: 0, Job: 1, Host: 1, Slots: shared})
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "double-assign") {
		t.Fatalf("double assignment not reported: %v", err)
	}
}

func TestOrchestratorProbeLifecycleOrder(t *testing.T) {
	s := New()
	probe := s.OrchestratorProbe()
	// Launch before place, and a job finishing without arriving.
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: 0, Job: 0, Host: -1})
	probe(orchestrator.Event{Kind: orchestrator.EventLaunch, At: 0, Job: 0, Host: 0})
	probe(orchestrator.Event{Kind: orchestrator.EventFinish, At: 0, Job: 7, Host: 0})
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "lifecycle") {
		t.Fatalf("lifecycle violations not reported: %v", err)
	}
}

func TestOrchestratorProbeTimeMonotonic(t *testing.T) {
	s := New()
	probe := s.OrchestratorProbe()
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: time.Second, Job: 0, Host: -1})
	probe(orchestrator.Event{Kind: orchestrator.EventArrive, At: 0, Job: 1, Host: -1})
	err := s.Err()
	if err == nil || !strings.Contains(err.Error(), "time-monotonic") {
		t.Fatalf("time regression not reported: %v", err)
	}
}

func TestWatchChassisConservation(t *testing.T) {
	ch := falcon.New("inv-test")
	if err := ch.CableHost("H1", "host1"); err != nil {
		t.Fatal(err)
	}
	if err := ch.CableHost("H2", "host2"); err != nil {
		t.Fatal(err)
	}
	if err := ch.SetMode(0, falcon.ModeAdvanced); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ch.Install(ref(0, i), falcon.DeviceInfo{
			ID: "g", Type: falcon.DeviceGPU, Model: gpu.TeslaV100PCIe.Name,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := New()
	s.watchChassis(ch, 0)
	if err := ch.Attach(ref(0, 0), "H1"); err != nil {
		t.Fatal(err)
	}
	if err := ch.Attach(ref(0, 1), "H1"); err != nil {
		t.Fatal(err)
	}
	if err := ch.Reassign(ref(0, 1), "H2"); err != nil {
		t.Fatal(err)
	}
	if err := ch.Detach(ref(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("legal attach/reassign/detach sequence reported violations: %v", err)
	}
	if s.chassisAttaches != 2 || s.chassisReassigns != 1 || s.chassisDetaches != 1 {
		t.Fatalf("event accounting: %d attaches, %d reassigns, %d detaches",
			s.chassisAttaches, s.chassisReassigns, s.chassisDetaches)
	}
}
