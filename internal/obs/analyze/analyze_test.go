package analyze_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"composable/internal/obs"
	"composable/internal/obs/analyze"
	"composable/internal/orchestrator"
	"composable/internal/scengen"
	"composable/internal/sim"
)

// faultyScenario is a fixed faulty fleet run exercising every span the
// analyzer attributes: waits, composes, runs, checkpoints, restores,
// kills, and requeues (same shape as the obs golden-trace scenario).
func faultyScenario() scengen.FleetScenario {
	sc := scengen.FleetFromSeed(1)
	sc.Jobs = sc.Jobs[:3]
	sc.Plan = scengen.PlanForFleet(3, sc)
	return scengen.SanitizeFleet(sc)
}

func runFaulty(t *testing.T) (*obs.Collector, *scengen.FleetOutcome) {
	t.Helper()
	c := obs.NewCollector()
	out, err := scengen.RunFleet(sim.NewEnv(), faultyScenario(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	return c, out
}

// TestReadTraceMatchesCollector pins the two input paths against each
// other: analyzing a live collector and analyzing its exported Chrome
// trace must see the identical span model.
func TestReadTraceMatchesCollector(t *testing.T) {
	c, _ := runFaulty(t)
	live := analyze.FromCollector(c)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := analyze.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if live.Horizon != reread.Horizon {
		t.Errorf("horizon: live %v vs reread %v", live.Horizon, reread.Horizon)
	}
	if len(live.Spans) != len(reread.Spans) {
		t.Fatalf("span count: live %d vs reread %d", len(live.Spans), len(reread.Spans))
	}
	for i := range live.Spans {
		if !reflect.DeepEqual(live.Spans[i], reread.Spans[i]) {
			t.Fatalf("span %d diverges:\nlive   %+v\nreread %+v", i, live.Spans[i], reread.Spans[i])
		}
	}
}

// checkLedger asserts the attribution ledger for one analyzed run: per
// job the buckets sum to the wall span exactly and the critical path
// tiles [arrival, finish] gaplessly; completed jobs reconcile exactly
// with the orchestrator's JobResult; GPU-second accounting matches the
// run spans; and goodput × makespan reconciles with delivered GPU time.
func checkLedger(t testing.TB, tr *analyze.Trace, a *analyze.Analysis, res *orchestrator.FleetResult) {
	t.Helper()
	// Per-job run-span totals straight from the trace, for the
	// GPU-second reconciliation.
	runTotal := map[int64]time.Duration{}
	finalRun := map[int64]analyze.Span{}
	for _, sp := range tr.Spans {
		if sp.Cat == "orchestrator" && sp.Name == "run" && sp.Job >= 0 {
			runTotal[sp.Job] += sp.Dur()
			finalRun[sp.Job] = sp
		}
	}

	for i := range a.Jobs {
		ja := &a.Jobs[i]
		var sum time.Duration
		for b := analyze.Bucket(0); b < analyze.NumBuckets; b++ {
			sum += ja.Buckets[b]
		}
		if sum != ja.Wall {
			t.Errorf("job %d: buckets sum %v != wall %v (Δ %v)", ja.Job, sum, ja.Wall, ja.Wall-sum)
		}
		// Path tiles [Arrival, Finish] with no gaps or overlaps.
		cursor := ja.Arrival
		for _, seg := range ja.Path {
			if seg.Start != cursor {
				t.Errorf("job %d: path gap/overlap at %v (segment starts %v)", ja.Job, cursor, seg.Start)
				break
			}
			if seg.End <= seg.Start {
				t.Errorf("job %d: empty path segment %+v", ja.Job, seg)
			}
			cursor = seg.End
		}
		if cursor != ja.Finish {
			t.Errorf("job %d: path ends at %v, want finish %v", ja.Job, cursor, ja.Finish)
		}
	}

	if res == nil {
		return
	}
	byID := make(map[int64]*analyze.JobAttribution, len(a.Jobs))
	for i := range a.Jobs {
		byID[a.Jobs[i].Job] = &a.Jobs[i]
	}
	for _, jr := range res.Jobs {
		ja := byID[int64(jr.ID)]
		if ja == nil {
			t.Errorf("job %d in FleetResult but not in trace analysis", jr.ID)
			continue
		}
		if ja.Failed != jr.Failed {
			t.Errorf("job %d: trace failed=%v, result failed=%v", jr.ID, ja.Failed, jr.Failed)
		}
		if ja.Arrival != jr.Arrival {
			t.Errorf("job %d: trace arrival %v != result arrival %v", jr.ID, ja.Arrival, jr.Arrival)
		}
		if !jr.Failed {
			// Wall = Wait + Runtime exactly, and the final run span IS
			// the final attempt.
			if ja.Finish != jr.Finished {
				t.Errorf("job %d: trace finish %v != result finished %v", jr.ID, ja.Finish, jr.Finished)
			}
			if ja.Wall != jr.Wait+jr.Runtime {
				t.Errorf("job %d: wall %v != wait %v + runtime %v", jr.ID, ja.Wall, jr.Wait, jr.Runtime)
			}
			fr, ok := finalRun[int64(jr.ID)]
			if !ok {
				t.Errorf("job %d completed but has no run span", jr.ID)
			} else if fr.Dur() != jr.Runtime {
				t.Errorf("job %d: final run span %v != runtime %v", jr.ID, fr.Dur(), jr.Runtime)
			}
		}
		// Delivered + lost GPU-seconds = GPUs × total launched attempt
		// time (float accounting, so compare with a tolerance).
		want := float64(jr.GPUs) * runTotal[int64(jr.ID)].Seconds()
		got := jr.GPUSeconds + jr.LostGPUSeconds
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("job %d: delivered %v + lost %v = %v GPU·s, want GPUs × run spans = %v",
				jr.ID, jr.GPUSeconds, jr.LostGPUSeconds, got, want)
		}
	}
	// Fleet level: goodput is delivered GPU time over makespan.
	if res.Makespan > 0 {
		want := res.GPUSeconds / res.Makespan.Seconds()
		if math.Abs(res.Goodput-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("fleet: goodput %v != GPUSeconds/Makespan %v", res.Goodput, want)
		}
	}
}

// TestAttributionLedgerFaultyRun runs the fixed faulty scenario and
// checks the full ledger, including that fault wind-down actually got
// blamed (the scenario kills at least one attempt).
func TestAttributionLedgerFaultyRun(t *testing.T) {
	c, out := runFaulty(t)
	tr := analyze.FromCollector(c)
	a := tr.Analyze()
	checkLedger(t, tr, a, out.Result)

	if out.Result.Kills > 0 && a.Blame[analyze.BucketWinddown] == 0 {
		t.Errorf("run had %d kills but winddown blame is zero", out.Result.Kills)
	}
	if a.Blame[analyze.BucketCompute] == 0 {
		t.Error("no compute time attributed at all")
	}
	// Jobs here place instantly (capacity is free at arrival), so the
	// wait bucket is legitimately zero — but every job must still have
	// a wait histogram entry.
	if a.Wait.Count() != len(a.Jobs) {
		t.Errorf("wait histogram has %d entries, want one per job (%d)", a.Wait.Count(), len(a.Jobs))
	}
	kills := 0
	for i := range a.Jobs {
		kills += a.Jobs[i].Kills
	}
	if kills != out.Result.Kills {
		t.Errorf("trace sees %d kills, result says %d", kills, out.Result.Kills)
	}
}

// TestReportsDeterministic pins run-over-run byte identity of both
// renderers, and that the JSON report is valid JSON.
func TestReportsDeterministic(t *testing.T) {
	render := func() (string, []byte) {
		c, out := runFaulty(t)
		a := analyze.FromCollector(c).Analyze()
		stats := &analyze.FleetStats{
			Goodput:     out.Result.Goodput,
			Utilization: out.Result.Utilization,
			Known:       true,
		}
		slo, err := analyze.ParseSLO("p99-wait<=10m goodput>=0.001 max-failed<=100")
		if err != nil {
			t.Fatal(err)
		}
		health := analyze.Evaluate(slo, a, *stats)
		var txt bytes.Buffer
		if err := analyze.WriteText(&txt, a, stats, health, 5); err != nil {
			t.Fatal(err)
		}
		js, err := analyze.JSONReport(a, stats, health, 5)
		if err != nil {
			t.Fatal(err)
		}
		return txt.String(), js
	}
	txt1, js1 := render()
	txt2, js2 := render()
	if txt1 != txt2 {
		t.Error("text report differs between identical runs")
	}
	if !bytes.Equal(js1, js2) {
		t.Error("JSON report differs between identical runs")
	}
	var doc map[string]any
	if err := json.Unmarshal(js1, &doc); err != nil {
		t.Fatalf("JSON report is not valid JSON: %v", err)
	}
	if _, ok := doc["blame"]; !ok {
		t.Error("JSON report missing blame totals")
	}
}

// TestAnalyzeFromFileMatchesLive pins that the trace-file path yields
// the same analysis (and the same JSON report, minus run stats) as the
// live collector path.
func TestAnalyzeFromFileMatchesLive(t *testing.T) {
	c, _ := runFaulty(t)
	live := analyze.FromCollector(c).Analyze()

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := analyze.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := tr.Analyze()

	liveJS, err := analyze.JSONReport(live, nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	fileJS, err := analyze.JSONReport(fromFile, nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJS, fileJS) {
		t.Fatalf("file-based analysis diverges from live:\nlive:\n%s\nfile:\n%s", liveJS, fileJS)
	}
}
