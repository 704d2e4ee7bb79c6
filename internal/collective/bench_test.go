package collective_test

import (
	"testing"

	"composable/internal/perfbench"
)

// BenchmarkAllReduceLocal wraps the collective/allreduce-local suite op:
// repeated all-reduces on a warm 8-GPU localGPUs communicator.
func BenchmarkAllReduceLocal(b *testing.B) { perfbench.BenchCollectiveAllReduceLocal(b) }
