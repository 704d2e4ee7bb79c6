// The composition micro-benchmark. The harness body lives in
// internal/perfbench so that `go test -bench` here and `benchrunner
// -bench-json` measure the exact same code.
package cluster_test

import (
	"testing"

	"composable/internal/perfbench"
)

// BenchmarkComposePod measures composing the 1024-GPU pod fleet.
func BenchmarkComposePod(b *testing.B) { perfbench.BenchClusterComposePod(b) }
