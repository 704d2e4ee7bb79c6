package obs

import (
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
)

func TestAppendMicros(t *testing.T) {
	cases := []struct {
		d    sim.Time
		want string
	}{
		{0, "0"},
		{time.Microsecond, "1"},
		{1500 * time.Nanosecond, "1.500"},
		{time.Nanosecond, "0.001"},
		{999 * time.Nanosecond, "0.999"},
		{time.Second, "1000000"},
		{2*time.Second + 123456789*time.Nanosecond, "2123456.789"},
	}
	for _, c := range cases {
		if got := string(appendMicros(nil, c.d)); got != c.want {
			t.Errorf("appendMicros(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestRegistryText(t *testing.T) {
	var r Registry
	a := r.Counter("alpha_total")
	r.Gauge("beta", func() float64 { return 2.5 })
	r.Add(a, 41)
	r.Inc(a)
	if r.Counter("alpha_total") != a {
		t.Fatal("re-registering a counter must return the same handle")
	}
	if got := r.CounterValue("alpha_total"); got != 42 {
		t.Fatalf("CounterValue = %d, want 42", got)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "alpha_total 42\nbeta 2.5\n"
	if sb.String() != want {
		t.Fatalf("WriteText = %q, want %q", sb.String(), want)
	}
}

// TestCollectorSpans drives spans through a real environment: proc
// lifetimes become sim-track spans, explicit spans carry attributes, and
// open spans clamp to the last observed time at export.
func TestCollectorSpans(t *testing.T) {
	env := sim.NewEnv()
	c := NewCollector()
	c.Attach(env)

	var open SpanID
	env.Go("worker", func(p *sim.Proc) {
		id := c.Begin(CatFabric, "flow")
		c.SetAttr(id, "src", 3)
		c.SetAttrStr(id, "proto", "pcie")
		p.Sleep(10 * time.Millisecond)
		c.End(id)
		open = c.Begin(CatTrain, "never-closed")
		c.SetAttr(open, "job", 7)
		_ = c.Instant(CatFaults, "mark")
		p.Sleep(5 * time.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// worker proc span + flow + never-closed + instant.
	if c.SpanCount() != 4 {
		t.Fatalf("SpanCount = %d, want 4", c.SpanCount())
	}

	var sb strings.Builder
	if err := c.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"name":"worker","cat":"sim"`,
		`"name":"flow","cat":"fabric","args":{"src":3,"proto":"pcie"}`,
		`"ph":"i"`,
		// The open span must clamp to maxTime (15ms), not render zero-width:
		// started at 10ms, run ends at 15ms → dur 5000µs.
		`"ts":10000,"dur":5000,"name":"never-closed"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q\ntrace:\n%s", want, out)
		}
	}

	// Zero SpanID and double-End are safe no-ops.
	c.End(0)
	c.SetAttr(0, "x", 1)
	c.End(open)
	before := sb.String()
	var sb2 strings.Builder
	if err := c.WriteTrace(&sb2); err != nil {
		t.Fatal(err)
	}
	if before != sb2.String() {
		t.Error("no-op operations changed the exported trace")
	}
}

// TestSamplingCSV pins the sampler: primed first tick, one row per
// interval, metrics in registration order, CSV cells in Series.CSV's
// fixed formats.
func TestSamplingCSV(t *testing.T) {
	env := sim.NewEnv()
	c := NewCollector()
	c.SetInterval(20 * time.Millisecond)
	c.Attach(env)
	ticks := 0
	c.Registry().Gauge("ticks", func() float64 { ticks++; return float64(ticks) })
	cnt := c.Registry().Counter("bumps_total")

	var sp *sim.Proc
	n := 0
	sp = env.NewStepper("driver", func() {
		n++
		c.Registry().Add(cnt, 2)
		if n < 5 {
			env.ReadyAfter(sp, 20*time.Millisecond)
		} else {
			c.StopSampling()
		}
	})
	c.StartSampling()
	env.ReadyAfter(sp, 20*time.Millisecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.smp.Len() == 0 {
		t.Fatal("sampler never ticked")
	}
	var sb strings.Builder
	if err := c.WriteMetricsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time_s,sim.events,sim.procs,ticks,bumps_total" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != 1+c.smp.Len() {
		t.Fatalf("%d CSV rows, want %d", len(lines)-1, c.smp.Len())
	}
	if !strings.HasPrefix(lines[1], "0.020,") {
		t.Errorf("first sample row = %q, want 0.020s tick", lines[1])
	}
	sum := c.Summary()
	if !strings.Contains(sum, "bumps_total") || !strings.Contains(sum, "samples over") {
		t.Errorf("Summary missing expected fields:\n%s", sum)
	}
}

// TestSamplerStopsQueue guards the drain property: a collector whose
// sampling is never stopped must not wedge env.Run (the stepper re-arms
// only while unstopped), and StopSampling lets the queue drain.
func TestSamplerStopsQueue(t *testing.T) {
	env := sim.NewEnv()
	c := NewCollector()
	c.Attach(env)
	c.StartSampling()
	env.Go("short", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c.StopSampling()
	})
	done := make(chan error, 1)
	go func() { done <- env.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("env.Run did not drain after StopSampling")
	}
}
