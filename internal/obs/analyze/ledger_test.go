package analyze_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// sweepLedger fans seeds 1–100 over workers, running each seed's
// scenario observed and checking the full attribution ledger on each.
func sweepLedger(t *testing.T, scenario func(seed int64) scengen.FleetScenario) {
	t.Helper()
	const n = 100
	seeds := make(chan int64)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				c := obs.NewCollector()
				out, err := scengen.RunFleet(sim.NewEnv(), scenario(seed), c)
				if err == nil {
					err = out.Err()
				}
				if err != nil {
					mu.Lock()
					t.Errorf("seed %d: %v", seed, err)
					mu.Unlock()
					continue
				}
				tr := analyze.FromCollector(c)
				a := tr.Analyze()
				sub := &recordingT{}
				checkLedger(sub, tr, a, out.Result)
				if len(sub.errs) > 0 {
					mu.Lock()
					for _, e := range sub.errs {
						t.Errorf("seed %d: %s", seed, e)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		seeds <- int64(i + 1)
	}
	close(seeds)
	wg.Wait()
}

// recordingT captures checkLedger failures so the sweep can prefix
// them with the offending seed.
type recordingT struct {
	testing.TB
	errs []string
}

func (r *recordingT) Helper() {}
func (r *recordingT) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestLedgerBalanceFleetSweep is the satellite property test: across
// the 100-seed fleet sweep, every
// job's attribution buckets sum to its wall span exactly, the critical
// path tiles it gaplessly, and the fleet totals reconcile with
// FleetResult's wait/runtime/GPU-second/goodput accounting.
func TestLedgerBalanceFleetSweep(t *testing.T) {
	sweepLedger(t, scengen.FleetFromSeed)
}

// TestLedgerBalanceFaultSweep runs the same ledger property across the
// 100-seed fault sweep: kills,
// requeues and abandonments must still balance to the nanosecond.
func TestLedgerBalanceFaultSweep(t *testing.T) {
	sweepLedger(t, scengen.FaultsFromSeed)
}
