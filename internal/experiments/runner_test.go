package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// fake builds a registry-free experiment for runner plumbing tests.
func fake(id, out string, err error) Experiment {
	return Experiment{ID: id, Title: "fake " + id, Run: func(*Session) (string, error) {
		return out, err
	}}
}

func TestRunnerOrderAndTelemetry(t *testing.T) {
	exps := []Experiment{fake("E1", "one", nil), fake("E2", "two", nil), fake("E3", "three", nil)}
	reports, err := NewRunner(quickSession(), exps).RunAll(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for i, want := range []string{"one", "two", "three"} {
		if reports[i].ID != exps[i].ID {
			t.Errorf("report %d id = %s, want %s (input order must be preserved)", i, reports[i].ID, exps[i].ID)
		}
		if reports[i].Output != want {
			t.Errorf("report %d output = %q, want %q", i, reports[i].Output, want)
		}
		if reports[i].Elapsed < 0 {
			t.Errorf("report %d elapsed = %v, want >= 0", i, reports[i].Elapsed)
		}
	}
}

func TestRunnerErrorKeepsOtherReports(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{fake("E1", "one", nil), fake("E2", "", boom), fake("E3", "three", nil)}
	reports, err := NewRunner(quickSession(), exps).RunAll(context.Background(), 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "E2") {
		t.Errorf("err = %v, want the failing experiment's ID", err)
	}
	if reports[0].Output != "one" || reports[2].Output != "three" {
		t.Errorf("healthy experiments should still report: %+v", reports)
	}
	if reports[1].Err == nil {
		t.Error("failing experiment's report should carry its error")
	}
}

func TestRunnerCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	exps := []Experiment{
		{ID: "E1", Title: "fake", Run: func(*Session) (string, error) { ran.Add(1); return "x", nil }},
		{ID: "E2", Title: "fake", Run: func(*Session) (string, error) { ran.Add(1); return "x", nil }},
	}
	reports, err := NewRunner(quickSession(), exps).RunAll(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d experiments ran despite canceled context", got)
	}
	for _, r := range reports {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID, r.Err)
		}
	}
}

func TestRunnerCancelMidFlight(t *testing.T) {
	// A cancellation landing while the last experiments are already in
	// flight must still surface: completed reports keep their output and
	// RunAll falls back to ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	exps := []Experiment{
		{ID: "E1", Title: "fake", Run: func(*Session) (string, error) { cancel(); return "done", nil }},
	}
	reports, err := NewRunner(quickSession(), exps).RunAll(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reports[0].Err != nil || reports[0].Output != "done" {
		t.Errorf("in-flight experiment should complete normally: %+v", reports[0])
	}
}

func TestRunnerNilDefaultsToRegistry(t *testing.T) {
	r := NewRunner(quickSession(), nil)
	// Don't run the full suite here (e2e covers it); just confirm the
	// default expansion matches the catalog.
	exps := r.Experiments
	if exps != nil {
		t.Fatalf("nil Experiments should stay nil until RunAll")
	}
	if got, want := len(Registry()), len(All())+len(Extensions())+len(FleetExperiments())+len(RecoveryExperiments()); got != want {
		t.Fatalf("Registry() = %d experiments, want %d", got, want)
	}
}

func TestRegistryLookupsAndCopies(t *testing.T) {
	for _, id := range []string{"T1", "F16", "A4", "X2", "S1", "S3"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != id {
			t.Errorf("ByID(%s).ID = %s", id, e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID should reject unknown IDs")
	}
	// Mutating the returned slice must not corrupt the shared catalog.
	reg := Registry()
	reg[0].ID = "corrupted"
	if Registry()[0].ID != "T1" {
		t.Error("Registry() exposed shared backing storage")
	}
}
