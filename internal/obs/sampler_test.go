package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
)

// series builds a Series view with one sample per second.
func series(name string, values ...float64) *Series {
	times := make([]sim.Time, len(values))
	for i := range times {
		times[i] = time.Duration(i) * time.Second
	}
	return &Series{name: name, times: times, values: values}
}

func TestSamplerSamplesAtInterval(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	v := 0.0
	reg.Gauge("x", func() float64 { v += 1; return v })
	smp := NewSampler(&reg, 100*time.Millisecond)
	smp.Start(env)
	env.Go("stopper", func(p *sim.Proc) {
		p.Sleep(1050 * time.Millisecond)
		smp.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := smp.Series("x")
	if s.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.Len())
	}
	if s.times[0] != 100*time.Millisecond {
		t.Fatalf("first sample at %v", s.times[0])
	}
}

// TestSamplerStopsWhenNothingElseIsPending runs a sampler alone for an
// hour of sim time: its first tick finds nothing else pending and does
// not re-arm, so it samples once instead of 36,000 times.
func TestSamplerStopsWhenNothingElseIsPending(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	reg.Gauge("x", func() float64 { return 1 })
	smp := NewSampler(&reg, 100*time.Millisecond)
	smp.Start(env)
	if err := env.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	if smp.Len() != 1 {
		t.Fatalf("%d ticks, want 1", smp.Len())
	}
}

func TestSamplerNames(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	reg.Gauge("a", func() float64 { return 0 })
	reg.Gauge("b", func() float64 { return 0 })
	smp := NewSampler(&reg, time.Second)
	smp.Start(env)
	reg.Gauge("late", func() float64 { return 0 })
	smp.Stop()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	names := smp.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if smp.Series("nope") != nil {
		t.Fatal("unknown series should be nil")
	}
	if smp.Series("late") != nil {
		t.Fatal("a metric registered after Start should not be sampled")
	}
}

func TestSeriesStats(t *testing.T) {
	s := series("t", 1, 5, 3, 2, 4)
	if s.Mean() != 3 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Max() != 5 || s.Min() != 1 {
		t.Errorf("max/min = %v/%v", s.Max(), s.Min())
	}
}

func TestEmptySeriesSafe(t *testing.T) {
	s := series("empty")
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series stats should be zero")
	}
	if s.Sparkline(10) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestSparklineShape(t *testing.T) {
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	sp := []rune(series("ramp", ramp...).Sparkline(10))
	if len(sp) != 10 {
		t.Fatalf("width = %d", len(sp))
	}
	// A ramp renders monotonically non-decreasing glyphs.
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1] {
			t.Fatalf("sparkline not monotonic for ramp: %q", string(sp))
		}
	}
	// Constant series renders without dividing by zero.
	c := series("const", 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
	if got := c.Sparkline(5); len([]rune(got)) != 5 {
		t.Fatalf("constant sparkline = %q", got)
	}
}

func TestCSVExport(t *testing.T) {
	s := &Series{name: "gpu", times: []sim.Time{time.Second}, values: []float64{0.5}}
	if got := s.CSV(); got != "time_s,gpu\n1.000,0.500000\n" {
		t.Fatalf("csv = %q", got)
	}
}

// record drives one deterministic simulated recording and renders every
// output format the sampler and tracks expose.
func record(t *testing.T) (csv, spark, track, timeline string) {
	t.Helper()
	env := sim.NewEnv()
	var reg Registry
	v := 0.0
	reg.Gauge("util", func() float64 { v += 7; return float64(int(v*13) % 97) })
	smp := NewSampler(&reg, 50*time.Millisecond)
	smp.Start(env)
	tr := NewTrack("events")
	env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(90 * time.Millisecond)
			kind := "tick"
			if i%3 == 0 {
				kind = "mark"
			}
			tr.Record(p.Now(), kind, "step")
		}
		smp.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := smp.Series("util")
	return s.CSV(), s.Sparkline(40), fmt.Sprint(tr.Events), tr.Timeline(60, time.Second)
}

// TestRenderedOutputIsRunStable is the run-twice pin for the rendered
// paths maporder polices: two identical simulated recordings must render
// byte-identical CSV, sparkline and timeline artifacts.
func TestRenderedOutputIsRunStable(t *testing.T) {
	csv1, spark1, track1, tl1 := record(t)
	csv2, spark2, track2, tl2 := record(t)
	if csv1 != csv2 {
		t.Errorf("Series.CSV differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if spark1 != spark2 {
		t.Errorf("Sparkline differs between identical runs: %q vs %q", spark1, spark2)
	}
	if track1 != track2 {
		t.Errorf("track events differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", track1, track2)
	}
	if tl1 != tl2 {
		t.Errorf("Timeline differs between identical runs:\n%q\nvs\n%q", tl1, tl2)
	}
	if !strings.HasPrefix(csv1, "time_s,util\n0.050,") || track1 == "" {
		t.Fatalf("sanity: rendered artifacts are empty or unprimed:\n%s", csv1)
	}
}

// TestSamplerRestartMatchesFresh runs one sampler through a long run and
// then two shorter ones, each on a new environment, and every shorter run
// again with a fresh sampler: the sampler started again must dispatch the
// same events and record exactly the fresh sampler's series, into the
// storage of its first run.
func TestSamplerRestartMatchesFresh(t *testing.T) {
	registry := func(env **sim.Env) *Registry {
		reg := NewRegistry(2)
		reg.Gauge("now", func() float64 { return (*env).Now().Seconds() })
		reg.Gauge("events", func() float64 { return float64((*env).EventCount()) })
		return reg
	}
	// run records one run of the given length on a new environment and
	// returns its event digest.
	run := func(smp *Sampler, cur **sim.Env, length time.Duration) uint64 {
		env := sim.NewEnv()
		var d sim.Digest
		env.SetDigest(&d)
		*cur = env
		smp.Start(env)
		env.Schedule(length, smp.Stop)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if smp.Pending() {
			t.Fatal("sampler still pending after its run drained")
		}
		return d.Sum()
	}
	var keptEnv *sim.Env
	kept := NewSampler(registry(&keptEnv), 100*time.Millisecond)
	run(kept, &keptEnv, 2*time.Second)
	times, col := &kept.times[0], &kept.cols[1][0]
	for _, length := range []time.Duration{time.Second, 350 * time.Millisecond} {
		got := run(kept, &keptEnv, length)
		var freshEnv *sim.Env
		fresh := NewSampler(registry(&freshEnv), 100*time.Millisecond)
		if want := run(fresh, &freshEnv, length); got != want {
			t.Fatalf("%v run: restarted sampler's digest %x, fresh sampler's %x", length, got, want)
		}
		if kept.Len() == 0 || kept.Len() != fresh.Len() {
			t.Fatalf("%v run: restarted sampler took %d ticks, fresh sampler %d", length, kept.Len(), fresh.Len())
		}
		for _, name := range fresh.Names() {
			g, w := kept.Series(name), fresh.Series(name)
			if fmt.Sprint(g.times, g.values) != fmt.Sprint(w.times, w.values) {
				t.Fatalf("%v run, series %s: restarted %v %v, fresh %v %v", length, name, g.times, g.values, w.times, w.values)
			}
		}
		if &kept.times[0] != times || &kept.cols[1][0] != col {
			t.Fatalf("%v run: the restarted sampler did not reuse its first run's storage", length)
		}
	}
}

// TestSamplerPendingUntilLastTick pins the restart rule: a stopped
// sampler stays pending until its armed tick has fired, and starting it
// again before then panics instead of letting that tick step the new run.
func TestSamplerPendingUntilLastTick(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	reg.Gauge("x", func() float64 { return 1 })
	smp := NewSampler(&reg, 100*time.Millisecond)
	smp.Start(env)
	env.Schedule(250*time.Millisecond, smp.Stop)
	if err := env.RunUntil(260 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !smp.Pending() {
		t.Fatal("stopped sampler not pending while its 300 ms tick is armed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Start with a tick pending did not panic")
			}
		}()
		smp.Start(env)
	}()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if smp.Pending() || smp.Len() != 2 {
		t.Fatalf("after the last tick: pending %t, %d samples, want false and 2", smp.Pending(), smp.Len())
	}
	smp.Start(env)
	if !smp.Pending() || smp.Len() != 0 {
		t.Fatalf("restart: pending %t, %d samples, want true and 0", smp.Pending(), smp.Len())
	}
}
