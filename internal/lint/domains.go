package lint

import "strings"

// simDomain lists the packages bound by the determinism contract: the
// engine, every model layer whose execution feeds fingerprints, the
// invariant/scenario machinery whose reports must reproduce, the
// experiment result paths, the control plane (its audit log and job
// records are rendered output), and the deterministic CLIs whose
// run-twice diffs CI gates on. Wall-clock reads and shared-source
// randomness in these packages break byte-identical replay; nowallclock
// polices them, and maporder scopes its output-path search here too.
var simDomain = []string{
	"composable/internal/sim",
	"composable/internal/fabric",
	"composable/internal/train",
	"composable/internal/collective",
	"composable/internal/orchestrator",
	"composable/internal/faults",
	"composable/internal/invariant",
	"composable/internal/scengen",
	"composable/internal/experiments",
	"composable/internal/obs",
	"composable/internal/falcon",
	"composable/internal/cluster",
	"composable/internal/mcs",
	"composable/internal/advisor",
	"composable/cmd/composer",
	"composable/cmd/benchrunner",
	"composable/cmd/fleetsim",
	"composable/cmd/advisor",
	"composable/cmd/falconctl",
}

// inSimDomain reports whether the package path (or a subpackage of it)
// carries the determinism contract.
func inSimDomain(path string) bool {
	for _, d := range simDomain {
		if path == d || strings.HasPrefix(path, d+"/") {
			return true
		}
	}
	return false
}
