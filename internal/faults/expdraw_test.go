package faults

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// countingSource is a rand.Source that counts the values drawn from it.
type countingSource struct {
	src rand.Source
	n   int
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// mtbfDraws replays PlanMTBF's draws for (seed, mtbf, b) on a counting
// source. It returns the plan the draws derive, the number of ExpFloat64
// draws and the indices of those that left the ziggurat's fast path. A
// fast-path draw consumes exactly one source value; one that reaches the
// tail (math.Log) or the wedge test (math.Exp), whose results are
// architecture-specific, consumes more.
func mtbfDraws(seed int64, mtbf time.Duration, b Bounds) (p Plan, draws int, slow []int) {
	src := &countingSource{src: rand.NewSource(seed)}
	rng := rand.New(src)
	p = Plan{Seed: seed}
	at := time.Duration(0)
	for {
		before := src.n
		gap := time.Duration(float64(mtbf) * rng.ExpFloat64())
		if src.n-before != 1 {
			slow = append(slow, draws)
		}
		draws++
		if gap < minFaultTime {
			gap = minFaultTime
		}
		at += gap
		if at > horizon(b) || len(p.Events) >= 4*DefaultMaxEvents {
			break
		}
		ev := Event{At: at, Repair: time.Duration(500+rng.Intn(4000)) * time.Millisecond}
		switch rng.Intn(4) {
		case 0:
			ev.Kind = KindSlotLink
			ev.Target = rng.Intn(max(1, b.Slots))
			ev.Factor = [...]float64{0, 0.1, 0.25}[rng.Intn(3)]
		case 1, 2:
			ev.Kind = KindGPU
			ev.Target = rng.Intn(max(1, b.Slots))
		case 3:
			ev.Kind = KindDrawer
			ev.Target = rng.Intn(b.drawers())
		}
		p.Events = append(p.Events, ev)
	}
	return Sanitize(p, b), draws, slow
}

// chassisFaultsPlanSeed is the seed the benchmark's chassis-faults
// workload (bench/workloads.go, genChassisFaults) hands PlanMTBF at the
// given input seed: its stream generator's draws (a 150-job shuffle, 150
// arrival times, 150 tenants of 3 hosts), then one Int63.
func chassisFaultsPlanSeed(seed int64) int64 {
	const jobs, gap = 150, 2 * time.Second
	rng := rand.New(rand.NewSource(seed ^ 0x6661756c7473))
	rng.Shuffle(jobs, func(i, j int) {})
	for i := 0; i < jobs; i++ {
		rng.Int63n(jobs * int64(gap))
	}
	for i := 0; i < jobs; i++ {
		rng.Intn(3)
	}
	return rng.Int63()
}

// offFastPath lists, per pinned chassis-faults seed, the indices of the
// plan's ExpFloat64 draws that leave the ziggurat's fast path. Seed 1's
// third draw takes the wedge test: it compares against math.Exp, is
// rejected and draws again. Its outcome, and so the pinned plan, rests on
// math.Exp and on float32 rounding agreeing across architectures.
var offFastPath = map[int64][]int{1: {2}, 2: nil}

// TestPlanMTBFDrawsOffTheFastPath counts, for every plan a pinned output
// derives with PlanMTBF, the ExpFloat64 draws that leave the ziggurat's
// fast path, and holds them to offFastPath. The pinned plans are the
// benchmark's chassis-faults plans at its pinned seeds 1 and 2; the
// scengen fault sweeps derive theirs with FromSeed, which draws no
// ExpFloat64. A fast-path draw is an integer draw and one float64
// product, identical on every architecture; a draw off it is not.
func TestPlanMTBFDrawsOffTheFastPath(t *testing.T) {
	b := Bounds{
		Slots: 16, SlotsPerDrawer: 8, Hosts: 3,
		Horizon: 150 * 2 * time.Second, MaxPermanentGPUs: 4,
	}
	for seed := int64(1); seed <= 2; seed++ {
		planSeed := chassisFaultsPlanSeed(seed)
		got, draws, slow := mtbfDraws(planSeed, 4*time.Second, b)
		if want := PlanMTBF(planSeed, 4*time.Second, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("chassis-faults seed %d: the replayed draws derive a plan PlanMTBF does not:\n%+v\n%+v", seed, got, want)
		}
		if !reflect.DeepEqual(slow, offFastPath[seed]) {
			t.Errorf("chassis-faults seed %d (plan seed %d): draws %v of %d leave the fast path, want %v",
				seed, planSeed, slow, draws, offFastPath[seed])
		}
		t.Logf("chassis-faults seed %d (plan seed %d): %d ExpFloat64 draws, off the fast path: %v", seed, planSeed, draws, slow)
	}
}
