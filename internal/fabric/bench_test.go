// The fabric-allocator micro-benchmarks. The contended-churn harness and
// the star topology builder live in internal/perfbench so that `go test
// -bench` here and `benchrunner -bench-json` measure the exact same code.
package fabric_test

import (
	"strconv"
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
// pops/route counts heap pops per cold search. Every destination is a GPU,
// a leaf, so each search ends when the GPU's drawer switch settles, not
// when the GPU itself does.
func BenchmarkRouteColdPodFleet(b *testing.B) {
	b.ReportAllocs()
	routes, pops := 0, 0
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
		_, p := fleet.Net.RouteWork()
		pops += p
	}
	b.ReportMetric(float64(routes)/b.Elapsed().Seconds(), "routes/s")
	b.ReportMetric(float64(pops)/float64(routes), "pops/route")
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

// BenchmarkRecomputeDisjoint measures recomputes on one churning ring of
// six legs while K-1 disjoint rings carry steady flows, for K = 1, 8 and
// 32. One op is one ring round: a start and a completion. A recompute
// re-solves only the component a change reaches, so solved/recompute stays
// flat in K. ns/recompute still grows linearly in K: integrating flows up
// to the instant and finding the next completion scan every active flow.
// A whole-set solve would grow quadratically, with rounds × constraints.
// passes/recompute counts waterfill scans: a ring's legs all tie at one
// share, so a start costs one scan rather than one per winner.
func BenchmarkRecomputeDisjoint(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			env := sim.NewEnv()
			net, rings := disjointRings(env, k, 6, units.MB)
			startSteady(b, net, rings[1:])
			recomputes := 0
			net.OnRecompute(func() { recomputes++ })
			env.Go("churn", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					if err := net.ParallelTransfer(p, rings[0]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			solved, _, passes := net.SolveWork()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			after, _, afterPasses := net.SolveWork()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recomputes), "ns/recompute")
			b.ReportMetric(float64(after-solved)/float64(recomputes), "solved/recompute")
			b.ReportMetric(float64(afterPasses-passes)/float64(recomputes), "passes/recompute")
		})
	}
}
