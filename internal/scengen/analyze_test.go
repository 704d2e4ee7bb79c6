package scengen

import (
	"strings"
	"testing"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/sim"
)

// TestAnalyzeFleetAndCheckSLO pins the sweep-facing SLO assertion
// path: a generous SLO holds on a seeded scenario run with a collector,
// an impossible one reports the failing clause with its actual value,
// and the analysis ledger-balances against the outcome.
func TestAnalyzeFleetAndCheckSLO(t *testing.T) {
	out, a := analyzeFleet(t, FleetFromSeed(1))
	if len(a.Jobs) != len(out.Result.Jobs) {
		t.Fatalf("analysis sees %d jobs, result has %d", len(a.Jobs), len(out.Result.Jobs))
	}

	if err := CheckSLO("p99-wait<=24h max-failed<=0 util>=0", a, out.Stats()); err != nil {
		t.Errorf("generous SLO should hold: %v", err)
	}
	err := CheckSLO("p99-latency<=1ns goodput>=1e9", a, out.Stats())
	if err == nil {
		t.Fatal("impossible SLO passed")
	}
	if !strings.Contains(err.Error(), "p99-latency<=1ns") || !strings.Contains(err.Error(), "goodput>=1e9") {
		t.Errorf("violation message should name both failed clauses, got: %v", err)
	}

	if err := CheckSLO("bogus<=1", a, out.Stats()); err == nil {
		t.Error("bad SLO spec should fail to parse")
	}
}

// TestAnalyzeFaultyFleetWinddown pins that a faulty scenario's
// analysis carries fault wind-down blame when kills occurred.
func TestAnalyzeFaultyFleetWinddown(t *testing.T) {
	sc := trimJobs(FleetFromSeed(1), 3)
	sc.Plan = PlanForFleet(3, sc)
	out, a := analyzeFleet(t, SanitizeFleet(sc))
	kills := 0
	for i := range a.Jobs {
		kills += a.Jobs[i].Kills
	}
	if kills != out.Result.Kills {
		t.Errorf("analysis sees %d kills, result says %d", kills, out.Result.Kills)
	}
}

// analyzeFleet runs sc with a collector attached and analyzes its trace.
func analyzeFleet(t *testing.T, sc FleetScenario) (*FleetOutcome, *analyze.Analysis) {
	t.Helper()
	c := obs.NewCollector()
	out, err := RunFleet(sim.NewEnv(), sc, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	return out, analyze.FromCollector(c).Analyze()
}

func trimJobs(sc FleetScenario, n int) FleetScenario {
	if len(sc.Jobs) > n {
		sc.Jobs = sc.Jobs[:n]
	}
	return sc
}
