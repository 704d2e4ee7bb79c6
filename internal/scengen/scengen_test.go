package scengen

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// TestScenarioSweep is the randomized scenario tier: seeds 1–100, each
// run twice end to end. Every invariant must hold on every run, the two
// executions must produce byte-identical fingerprints, and a rotating
// subset additionally checks the metamorphic relations (faster fabric
// never slower, more iterations never faster, sharding never grows the
// memory peak).
func TestScenarioSweep(t *testing.T) {
	const base, n = 1, 100
	pins := newFingerprintPins("scenario")

	type job struct {
		seed int64
		idx  int
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sc := FromSeed(j.seed)
				env, digest := newSweepEnv()
				first, err := run(env, sc)
				if err != nil {
					fail("seed %d (%s): %v", j.seed, sc.ID(), err)
					continue
				}
				if err := first.Err(); err != nil {
					fail("seed %d (%s): %v", j.seed, sc.ID(), err)
					continue
				}
				env2, digest2 := newSweepEnv()
				second, err := run(env2, sc)
				if err != nil {
					fail("seed %d (%s): repeat: %v", j.seed, sc.ID(), err)
					continue
				}
				if err := second.Err(); err != nil {
					fail("seed %d (%s): repeat: %v", j.seed, sc.ID(), err)
					continue
				}
				pins.record(j.seed, first.Fingerprint, digest)
				if first.Fingerprint != second.Fingerprint {
					fail("seed %d (%s): two in-process runs diverged:\n--- first\n%s--- second\n%s",
						j.seed, sc.ID(), first.Fingerprint, second.Fingerprint)
					continue
				}
				if digest.Sum() != digest2.Sum() {
					fail("seed %d (%s): two in-process runs dispatched different events", j.seed, sc.ID())
					continue
				}
				var merr error
				switch j.idx % 10 {
				case 0:
					merr = checkFasterFabricNotSlower(sc)
				case 3:
					merr = checkShardedPeakNotLarger(sc)
				case 5:
					merr = checkMoreItersNotFaster(sc)
				}
				if merr != nil {
					fail("seed %d: %v", j.seed, merr)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- job{seed: base + int64(i), idx: i}
	}
	close(jobs)
	wg.Wait()
	pins.check(t)
}

func TestFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: FromSeed not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
	if reflect.DeepEqual(FromSeed(1), FromSeed(2)) {
		t.Fatal("distinct seeds produced identical scenarios")
	}
}

func TestSanitizeIdempotentAndValid(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		sc := FromSeed(seed)
		if again := Sanitize(sc); !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %d: Sanitize not idempotent:\n%+v\n%+v", seed, sc, again)
		}
		assertValid(t, sc)
	}
}

// TestSanitizeRepairsHostileScenarios drives Sanitize with out-of-range and
// contradictory raw values, as the fuzz target does, and requires a valid
// scenario back.
func TestSanitizeRepairsHostileScenarios(t *testing.T) {
	hostile := []Scenario{
		{}, // all zero: no GPUs, no workload
		{LocalGPUs: -3, FalconGPUs: 900, Workload: "nope", Strategy: "mpi", Storage: "tape"},
		{LocalGPUs: 1, Strategy: train.DP, Sharded: true}, // sharded DP, 1 GPU
		{FalconGPUs: 1, FalconModel: "H100", BatchPerGPU: 1 << 20, Workload: "BERT-L"},
		{LocalGPUs: 8, Workload: "BERT-L", Precision: 42, BatchPerGPU: 4096, Epochs: -5, ItersPerEpoch: 1 << 30},
		{FalconGPUs: 3, SingleDrawer: true, Buckets: -1, Workers: 10_000, Channels: 99},
	}
	for i, raw := range hostile {
		sc := Sanitize(raw)
		assertValid(t, sc)
		if again := Sanitize(sc); !reflect.DeepEqual(sc, again) {
			t.Fatalf("case %d: Sanitize not idempotent on repaired scenario", i)
		}
		// The repaired scenario must actually compose.
		if _, err := cluster.Compose(sim.NewEnv(), sc.Config()); err != nil {
			t.Fatalf("case %d: repaired scenario does not compose: %v", i, err)
		}
	}
}

// assertValid checks the structural validity contract of a sanitized
// scenario without running it.
func assertValid(t *testing.T, sc Scenario) {
	t.Helper()
	if sc.LocalGPUs < 0 || sc.LocalGPUs > 8 || sc.FalconGPUs < 0 || sc.FalconGPUs > 8 {
		t.Fatalf("%s: GPU counts out of range", sc.ID())
	}
	if sc.LocalGPUs+sc.FalconGPUs < 2 {
		t.Fatalf("%s: fewer than 2 GPUs", sc.ID())
	}
	if sc.FalconGPUs == 0 && (sc.FalconModel != "" || sc.SingleDrawer) {
		t.Fatalf("%s: falcon knobs without falcon GPUs", sc.ID())
	}
	if sc.Sharded && sc.Strategy != train.DDP {
		t.Fatalf("%s: sharded without DDP", sc.ID())
	}
	if sc.BatchPerGPU < 1 {
		t.Fatalf("%s: batch %d", sc.ID(), sc.BatchPerGPU)
	}
	if sc.Epochs < 1 || sc.Epochs > maxEpochs || sc.ItersPerEpoch < 1 || sc.ItersPerEpoch > maxIters {
		t.Fatalf("%s: run length out of range", sc.ID())
	}
	opts, err := sc.Options()
	if err != nil {
		t.Fatalf("%s: %v", sc.ID(), err)
	}
	// The batch must fit every GPU part under the scenario's sharding.
	shards := 1
	if sc.Sharded {
		shards = sc.LocalGPUs + sc.FalconGPUs
	}
	for _, spec := range sc.gpuSpecs() {
		need := opts.Workload.MemoryNeeded(sc.Precision, sc.BatchPerGPU, shards)
		if usable := spec.Memory - spec.Reserved; need > usable {
			t.Fatalf("%s: batch %d needs %v on %s (usable %v)",
				sc.ID(), sc.BatchPerGPU, need, spec.Name, usable)
		}
	}
}

// TestScenarioDiversity guards the generator's coverage: a modest seed
// range must exercise every storage tier, both strategies, both
// precisions, sharding, every workload, and local-only / falcon-only /
// hybrid / heterogeneous compositions.
func TestScenarioDiversity(t *testing.T) {
	storages := map[cluster.StorageKind]bool{}
	strategies := map[train.Strategy]bool{}
	workloads := map[string]bool{}
	var fp32, fp16, sharded, localOnly, falconOnly, hybrid, p100, singleDrawer bool
	for seed := int64(1); seed <= 200; seed++ {
		sc := FromSeed(seed)
		storages[sc.Storage] = true
		strategies[sc.Strategy] = true
		workloads[sc.Workload] = true
		switch {
		case sc.FalconGPUs == 0:
			localOnly = true
		case sc.LocalGPUs == 0:
			falconOnly = true
		default:
			hybrid = true
		}
		if sc.FalconModel == "P100" {
			p100 = true
		}
		if sc.SingleDrawer {
			singleDrawer = true
		}
		if sc.Sharded {
			sharded = true
		}
		if sc.Precision == 0 {
			fp32 = true
		} else {
			fp16 = true
		}
	}
	if len(storages) != 3 {
		t.Errorf("storage tiers seen: %v", storages)
	}
	if len(strategies) != 2 {
		t.Errorf("strategies seen: %v", strategies)
	}
	if len(workloads) != 5 {
		t.Errorf("workloads seen: %v", workloads)
	}
	for name, seen := range map[string]bool{
		"fp32": fp32, "fp16": fp16, "sharded": sharded, "local-only": localOnly,
		"falcon-only": falconOnly, "hybrid": hybrid, "P100": p100, "single-drawer": singleDrawer,
	} {
		if !seen {
			t.Errorf("generator never produced a %s scenario in 200 seeds", name)
		}
	}
}

// TestFingerprintDistinguishesResults makes sure the fingerprint is not
// vacuously stable: different scenarios produce different fingerprints.
func TestFingerprintDistinguishesResults(t *testing.T) {
	a, err := Run(FromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(FromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatalf("distinct scenarios share a fingerprint:\n%s", a.Fingerprint)
	}
}

func TestMetamorphicFasterFabric(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		if err := checkFasterFabricNotSlower(FromSeed(seed)); err != nil {
			t.Error(err)
		}
	}
}

func TestMetamorphicMoreIters(t *testing.T) {
	for seed := int64(21); seed <= 24; seed++ {
		if err := checkMoreItersNotFaster(FromSeed(seed)); err != nil {
			t.Error(err)
		}
	}
}

func TestMetamorphicShardedPeak(t *testing.T) {
	for seed := int64(31); seed <= 34; seed++ {
		if err := checkShardedPeakNotLarger(FromSeed(seed)); err != nil {
			t.Error(err)
		}
	}
}

// Metamorphic relations. Each check runs a scenario and a transformed
// sibling and asserts the physically necessary ordering between them, with
// a small tolerance for float scheduling noise.

// fasterFabricScale is the link speedup used by checkFasterFabricNotSlower.
const fasterFabricScale = 4.0

// metamorphicSlack bounds the tolerated inversion: a relative fraction of
// the baseline plus an absolute floor.
func metamorphicSlack(base time.Duration) time.Duration {
	s := base / 1000 // 0.1%
	if s < time.Millisecond {
		s = time.Millisecond
	}
	return s
}

// checkFasterFabricNotSlower asserts that the same workload on a strictly
// faster fabric (every link capacity ×4, latencies unchanged) never trains
// slower. Compute, storage media rates and endpoint overheads are
// unchanged, so total time must be monotone nonincreasing.
func checkFasterFabricNotSlower(sc Scenario) error {
	base, err := Run(sc)
	if err != nil {
		return err
	}
	if berr := base.Err(); berr != nil {
		return fmt.Errorf("scengen: baseline run of %s: %w", sc.ID(), berr)
	}
	fast, err := runScaledFabric(sc, fasterFabricScale)
	if err != nil {
		return err
	}
	if ferr := fast.Err(); ferr != nil {
		return fmt.Errorf("scengen: scaled-fabric run of %s: %w", sc.ID(), ferr)
	}
	b, f := base.Result.TotalTime, fast.Result.TotalTime
	if f > b+metamorphicSlack(b) {
		return fmt.Errorf("scengen: metamorphic faster-fabric violated on %s: %v (×%g links) > %v (baseline)",
			sc.ID(), f, fasterFabricScale, b)
	}
	return nil
}

// runScaledFabric is Run with every fabric link capacity (both
// directions) multiplied by factor before any flow starts.
func runScaledFabric(sc Scenario, factor float64) (*Outcome, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, err
	}
	sys, err := cluster.Compose(sim.NewEnv(), sc.Config())
	if err != nil {
		return nil, fmt.Errorf("scengen: compose %s: %w", sc.ID(), err)
	}
	for _, l := range sys.Net.Links() {
		l.CapAtoB = units.BytesPerSec(float64(l.CapAtoB) * factor)
		l.CapBtoA = units.BytesPerSec(float64(l.CapBtoA) * factor)
	}
	return trainOn(sys, sc, opts)
}

// checkMoreItersNotFaster asserts that doubling the iteration count never
// reduces total training time — work is strictly additive in this engine.
func checkMoreItersNotFaster(sc Scenario) error {
	base, err := Run(sc)
	if err != nil {
		return err
	}
	if berr := base.Err(); berr != nil {
		return fmt.Errorf("scengen: baseline run of %s: %w", sc.ID(), berr)
	}
	longer := sc
	longer.ItersPerEpoch *= 2
	long, err := Run(longer)
	if err != nil {
		return err
	}
	if lerr := long.Err(); lerr != nil {
		return fmt.Errorf("scengen: doubled-iters run of %s: %w", sc.ID(), lerr)
	}
	b, l := base.Result.TotalTime, long.Result.TotalTime
	if l+metamorphicSlack(b) < b {
		return fmt.Errorf("scengen: metamorphic more-iters violated on %s: %d iters in %v < %d iters in %v",
			sc.ID(), long.Result.Iters, l, base.Result.Iters, b)
	}
	return nil
}

// checkShardedPeakNotLarger asserts ZeRO-2 sharding never increases the
// per-GPU memory high-water mark at equal batch: sharding divides gradient
// and optimizer state, touching nothing else. Scenarios whose batch only
// fits sharded are skipped (nil error) — there is no unsharded sibling to
// compare against.
func checkShardedPeakNotLarger(sc Scenario) error {
	plain := sc
	plain.Strategy = train.DDP
	plain.Sharded = false
	plain = Sanitize(plain)
	if plain.Sharded {
		// Sanitize's relief valve re-enabled sharding: the workload does
		// not fit unsharded at all, so there is no sibling to compare.
		return nil
	}
	shard := plain
	shard.Sharded = true
	shard = Sanitize(shard)
	shard.BatchPerGPU = plain.BatchPerGPU // equal batch, known to fit unsharded
	pres, err := Run(plain)
	if err != nil {
		return err
	}
	if perr := pres.Err(); perr != nil {
		return fmt.Errorf("scengen: unsharded run of %s: %w", plain.ID(), perr)
	}
	sres, err := Run(shard)
	if err != nil {
		return err
	}
	if serr := sres.Err(); serr != nil {
		return fmt.Errorf("scengen: sharded run of %s: %w", shard.ID(), serr)
	}
	if sres.Result.PeakGPUMem > pres.Result.PeakGPUMem {
		return fmt.Errorf("scengen: metamorphic sharded-memory violated on %s: sharded peak %v > plain peak %v",
			sc.ID(), sres.Result.PeakGPUMem, pres.Result.PeakGPUMem)
	}
	return nil
}
