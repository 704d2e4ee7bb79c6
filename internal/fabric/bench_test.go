// The fabric-allocator micro-benchmarks. The contended-churn harness and
// the star topology builder live in internal/perfbench so that `go test
// -bench` here and `benchrunner -bench-json` measure the exact same code.
package fabric_test

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/perfbench"
	"composable/internal/sim"
	"composable/internal/units"
)

// BenchmarkFlowChurnSerial measures one flow add→drain→remove cycle per op
// over a two-hop path with no contention: the allocator's fixed cost.
func BenchmarkFlowChurnSerial(b *testing.B) {
	env := sim.NewEnv()
	net, eps := perfbench.StarNetwork(env, 2)
	env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := net.Transfer(p, eps[0], eps[1], units.MB); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkFlowChurnContended measures allocator churn under steady
// contention over the shared star switch. One op is one completed flow.
func BenchmarkFlowChurnContended(b *testing.B) { perfbench.BenchFabricFlowChurnContended(b) }

// BenchmarkRouteColdPodFleet measures the routing layer on its own, on the
// 1024-GPU pod fleet (8 pods × 8 chassis × 16 GPUs). Each op composes a
// fresh fleet with the timer stopped, so every route is a cold search,
// then routes every GPU i→i+1 ring pair and every host-DRAM→GPU pair.
func BenchmarkRouteColdPodFleet(b *testing.B) {
	b.ReportAllocs()
	routes := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, err := cluster.ComposeFleet(sim.NewEnv(), perfbench.PodFleetOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, s := range fleet.Slots {
			if _, err := fleet.Net.Route(s.Node, fleet.Slots[(j+1)%len(fleet.Slots)].Node); err != nil {
				b.Fatal(err)
			}
		}
		for _, h := range fleet.Hosts {
			for _, s := range fleet.Slots {
				if _, err := fleet.Net.Route(h.Mem, s.Node); err != nil {
					b.Fatal(err)
				}
			}
		}
		routes += len(fleet.Slots) * (1 + len(fleet.Hosts))
	}
	b.ReportMetric(float64(routes)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkRecomputeWide measures a single recompute sweep at width: 32
// concurrent flows started back to back (each start recomputes over the
// growing set), then drained.
func BenchmarkRecomputeWide(b *testing.B) {
	const width = 32
	env := sim.NewEnv()
	net, eps := perfbench.StarNetwork(env, width)
	env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			flows := make([]*fabric.Flow, 0, width)
			for j := 0; j < width; j++ {
				f, err := net.StartFlow(eps[j], eps[(j+1)%width], units.MB)
				if err != nil {
					b.Error(err)
					return
				}
				flows = append(flows, f)
			}
			for _, f := range flows {
				f.Done().Wait(p)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
