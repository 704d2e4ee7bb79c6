package scengen

import (
	"fmt"
	"strings"

	"composable/internal/obs/analyze"
)

// Stats converts the outcome's FleetResult into the analyzer's
// run-level stats, unlocking goodput/utilization SLO clauses.
func (o *FleetOutcome) Stats() analyze.FleetStats {
	return analyze.FleetStats{
		Goodput:     o.Result.Goodput,
		Utilization: o.Result.Utilization,
		Known:       true,
	}
}

// CheckSLO parses and evaluates a declarative SLO spec against an
// analysis. The returned error (nil when healthy) names every failed
// clause with its actual value, so a sweep failure message is
// self-contained.
func CheckSLO(spec string, a *analyze.Analysis, stats analyze.FleetStats) error {
	slo, err := analyze.ParseSLO(spec)
	if err != nil {
		return err
	}
	rep := analyze.Evaluate(slo, a, stats)
	if rep.Healthy {
		return nil
	}
	var b strings.Builder
	for _, c := range rep.Checks {
		if c.Skipped || c.Pass {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s (actual %s)", c.Clause, c.Actual)
	}
	return fmt.Errorf("slo violated: %s", b.String())
}
