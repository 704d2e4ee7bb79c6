package composable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/experiments"
	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/mcs"
	"composable/internal/sim"
	"composable/internal/train"
)

// TestEndToEndPlatform drives the whole stack the way an operator would:
// compose a Falcon-attached system, inspect it through the Management
// Center Server, train a benchmark on it, and read the monitoring surfaces
// back — one integration test across control plane, data plane and the DL
// software stack.
func TestEndToEndPlatform(t *testing.T) {
	sys, err := cluster.Compose(sim.NewEnv(), cluster.FalconGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Control plane over HTTP: the operator sees the composed inventory.
	srv := mcs.NewServer(sys.Chassis, []mcs.User{
		{Name: "op", Role: mcs.RoleAdmin, Token: "tok"},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string, into interface{}) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var sum falcon.ResourceSummary
	get("/api/summary", &sum)
	if sum.GPUs != 8 || sum.Attached != 8 {
		t.Fatalf("summary = %+v, want 8 attached GPUs", sum)
	}

	// Train BERT-large: the headline workload.
	res, err := train.Run(sys, train.Options{
		Workload:      dlmodel.BERTLargeWorkload(),
		Precision:     gpu.FP16,
		Epochs:        1,
		ItersPerEpoch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FalconPCIeGBps < 40 {
		t.Fatalf("falcon traffic = %.1f GB/s, want heavy", res.FalconPCIeGBps)
	}

	// The chassis monitoring saw the training traffic.
	var traffic []falcon.PortTrafficRow
	get("/api/traffic", &traffic)
	if len(traffic) != 8 {
		t.Fatalf("traffic rows = %d", len(traffic))
	}
	var moved bool
	for _, row := range traffic {
		if row.Egress > 1<<30 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("chassis port counters did not observe the all-reduce traffic")
	}

	// Sensors reflect a fully attached chassis.
	var sensors falcon.SensorReadings
	get("/api/sensors", &sensors)
	if sensors.DrawerTempC[0] < 40 {
		t.Fatalf("drawer temp = %.1f, want loaded chassis", sensors.DrawerTempC[0])
	}
}

// TestConcurrentTenantsEndToEnd runs two tenants concurrently on a shared
// drawer and checks both complete with sensible results — the advanced-mode
// path through Start/Collect.
func TestConcurrentTenantsEndToEnd(t *testing.T) {
	env := sim.NewEnv()
	systems, ch, err := cluster.ComposeShared(env, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Summary().Attached; got != 6 {
		t.Fatalf("attached = %d, want 6", got)
	}
	var jobs []*train.Job
	for i, sys := range systems {
		job, err := train.Start(sys, train.Options{
			Workload:      dlmodel.MobileNetV2Workload(),
			Precision:     gpu.FP16,
			Epochs:        1,
			ItersPerEpoch: 6 + i, // stagger lengths
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, job := range jobs {
		res, err := job.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != 6+i {
			t.Fatalf("tenant %d iters = %d", i, res.Iters)
		}
		if res.TotalTime.Seconds() <= prev {
			// Longer jobs take longer; equal-batch tenants are isolated.
			t.Fatalf("tenant %d time %v not increasing with iters", i, res.TotalTime)
		}
		prev = res.TotalTime.Seconds()
	}
}

// TestCollectBeforeRunFails pins the Start/Collect contract.
func TestCollectBeforeRunFails(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	job, err := train.Start(sys, train.Options{
		Workload: dlmodel.MobileNetV2Workload(), Precision: gpu.FP16,
		Epochs: 1, ItersPerEpoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(); err == nil {
		t.Fatal("Collect before running the environment should fail")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllParallelEqualsSequential pins the parallel runner's headline
// guarantee: for every experiment — tables, figures, ablations and
// extensions — a parallel RunAll renders byte-identical output to a
// sequential one, because the simulation is deterministic and the session
// deduplicates rather than races shared training runs.
func TestRunAllParallelEqualsSequential(t *testing.T) {
	runAll := func(parallelism int) []experiments.Report {
		t.Helper()
		s := experiments.NewSession(experiments.Quick)
		reports, err := experiments.NewRunner(s, nil).RunAll(context.Background(), parallelism)
		if err != nil {
			t.Fatalf("RunAll(parallelism=%d): %v", parallelism, err)
		}
		return reports
	}
	seq := runAll(1)
	par := runAll(8)

	if len(seq) != len(par) {
		t.Fatalf("report counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i, want := range seq {
		got := par[i]
		t.Run(want.ID, func(t *testing.T) {
			if got.ID != want.ID {
				t.Fatalf("report %d out of order: sequential %s, parallel %s", i, want.ID, got.ID)
			}
			if got.Output != want.Output {
				t.Errorf("parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
					want.Output, got.Output)
			}
		})
	}
}

// TestSessionConcurrentHammer drives one shared Session from many
// goroutines requesting overlapping (config × workload) runs — the data
// race the unsynchronized cache used to have. Under -race this test is the
// regression guard; the assertions check singleflight semantics: every
// caller gets the one cached result, and each distinct key trains exactly
// once.
func TestSessionConcurrentHammer(t *testing.T) {
	s := experiments.NewSession(experiments.Quick)
	cfgs := []cluster.Config{cluster.LocalGPUsConfig(), cluster.HybridGPUsConfig()}
	workloads := []dlmodel.Workload{dlmodel.MobileNetV2Workload(), dlmodel.ResNet50Workload()}

	const goroutines = 16
	results := make([][]*train.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the full key grid, offset so that
			// leaders and joiners interleave.
			for i := 0; i < len(cfgs)*len(workloads); i++ {
				j := (i + g) % (len(cfgs) * len(workloads))
				cfg, w := cfgs[j%len(cfgs)], workloads[j/len(cfgs)]
				res, err := s.Run(cfg, w)
				if err != nil {
					t.Errorf("goroutine %d: %s/%s: %v", g, cfg.Name, w.Name, err)
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Wait()

	distinct := make(map[*train.Result]bool)
	for _, rs := range results {
		for _, r := range rs {
			distinct[r] = true
		}
	}
	if want := len(cfgs) * len(workloads); len(distinct) != want {
		t.Errorf("distinct results = %d, want %d (one per key, shared by all callers)", len(distinct), want)
	}
	st := s.Stats()
	if want := len(cfgs) * len(workloads); st.TrainRuns != want {
		t.Errorf("TrainRuns = %d, want %d: concurrent callers duplicated a run", st.TrainRuns, want)
	}
	if total := st.TrainRuns + st.CacheHits + st.Joins; total != goroutines*len(cfgs)*len(workloads) {
		t.Errorf("stats don't add up: %+v over %d requests", st, goroutines*len(cfgs)*len(workloads))
	}
}

// TestExamplesCompile is a compile-time guard that the example programs
// build; running them is exercised by the shell smoke tests in CI.
func TestExamplesCompile(t *testing.T) {
	// The examples are separate main packages; `go build ./...` covers
	// them. This test exists to document the guarantee.
	for _, ex := range []string{"quickstart", "visionsweep", "nlpopt", "storagestudy", "dynamic"} {
		_ = fmt.Sprintf("examples/%s", ex)
	}
}
