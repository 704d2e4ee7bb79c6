// The fleet-orchestrator micro-benchmark. The harness body lives in
// internal/perfbench so that `go test -bench` here and `benchrunner
// -bench-json` measure the exact same code.
package orchestrator_test

import (
	"testing"

	"composable/internal/perfbench"
)

// BenchmarkFleetSchedule measures one complete fleet scheduling round:
// compose a 3-host × 8-GPU fleet and drive a fixed 6-job stream through
// the orchestrator, dynamic recompositions included.
func BenchmarkFleetSchedule(b *testing.B) { perfbench.BenchOrchestratorFleetSchedule(b) }

// BenchmarkPodBurst measures placement-heavy scheduling: compose the cold
// 1024-GPU pod fleet and place and run 128 one-iteration jobs.
func BenchmarkPodBurst(b *testing.B) { perfbench.BenchOrchestratorPodBurst(b) }

// BenchmarkFaultsRecoverReschedule measures the full fault-recovery path:
// fault injection, cooperative wind-down, control-plane hot-unplug,
// requeue, and checkpoint-resume on a 2-host × 8-GPU fleet.
func BenchmarkFaultsRecoverReschedule(b *testing.B) { perfbench.BenchFaultsRecoverReschedule(b) }
