package obs

import (
	"time"

	"composable/internal/sim"
)

// Cat is the category (Perfetto track) a span or instant belongs to. One
// fixed track per instrumented layer keeps trace output stable and lets a
// reader fold whole subsystems in the viewer.
type Cat uint8

// The instrumented layers, in track order. The first five are the
// legacy tracks pinned by the PR 9 golden trace; tracks added after
// (mcs, analyze) only appear in exported traces when a span actually
// uses them, so appending here never disturbs existing trace bytes.
const (
	CatSim Cat = iota
	CatFabric
	CatTrain
	CatOrchestrator
	CatFaults
	CatMCS
	CatAnalyze
	numCats

	// numLegacyCats bounds the tracks whose thread_name metadata is
	// emitted unconditionally (the golden-trace format).
	numLegacyCats = CatMCS
)

// catNames indexes Cat → track name; the order is the tid order in the
// exported trace.
var catNames = [numCats]string{"sim", "fabric", "train", "orchestrator", "faults", "mcs", "analyze"}

// Name returns the category's track name.
func (c Cat) Name() string {
	if c < numCats {
		return catNames[c]
	}
	return "unknown"
}

// SpanID identifies a span (or instant) held by a Collector. The zero
// SpanID is "none": End and SetAttr on it are no-ops, so instrumented
// code can store it unconditionally in pooled structs.
type SpanID uint32

// attrVal is one typed span attribute: either an int64 or a string.
type attrVal struct {
	key   string
	i     int64
	s     string
	isStr bool
}

// span is one recorded span or instant. Spans are stored (and exported)
// in begin order, which is deterministic because the simulation is.
type span struct {
	name    string
	cat     Cat
	start   sim.Time
	end     sim.Time
	open    bool
	instant bool
	attrs   []attrVal
}

// DefaultInterval is the sampling interval used when none is set.
const DefaultInterval = 100 * time.Millisecond

// Collector gathers spans, instants and metric samples from one
// simulation run. A nil *Collector means "tracing off": every
// instrumented seam nil-checks before emitting, so the disabled cost is
// one branch. Collectors are not safe for concurrent use; the simulator
// is single-threaded, which is what makes the output deterministic.
type Collector struct {
	env *sim.Env
	reg Registry
	smp Sampler // over reg

	spans   []span
	maxTime sim.Time // latest span time seen; see MaxTime
}

// NewCollector returns an empty collector sampling every DefaultInterval
// of sim time once StartSampling runs.
func NewCollector() *Collector {
	c := &Collector{}
	c.smp = Sampler{reg: &c.reg, interval: DefaultInterval}
	return c
}

// SetInterval sets the metric sampling interval. Non-positive values keep
// the default. Must be called before StartSampling.
func (c *Collector) SetInterval(d time.Duration) {
	if d > 0 {
		c.smp.interval = d
	}
}

// Registry returns the collector's metric registry, shared by every
// instrumented layer of the run.
func (c *Collector) Registry() *Registry { return &c.reg }

// Attach binds the collector to a simulation environment: spans get their
// timestamps from env.Now, proc lifetimes become spans on the sim track,
// and the engine's cumulative event count is registered as a gauge. Call
// once, before the environment runs.
func (c *Collector) Attach(env *sim.Env) {
	c.env = env
	env.SetProcProbe(
		func(name string, at sim.Time) uint64 {
			return uint64(c.beginAt(CatSim, name, at, false))
		},
		func(token uint64, at sim.Time) {
			c.EndAt(SpanID(token), at)
		},
	)
	c.reg.Gauge("sim.events", func() float64 { return float64(env.EventCount()) })
	c.reg.Gauge("sim.procs", func() float64 { return float64(env.LiveProcs()) })
}

func (c *Collector) note(at sim.Time) {
	if at > c.maxTime {
		c.maxTime = at
	}
}

func (c *Collector) beginAt(cat Cat, name string, at sim.Time, instant bool) SpanID {
	c.note(at)
	c.spans = append(c.spans, span{
		name:    name,
		cat:     cat,
		start:   at,
		end:     at,
		open:    !instant,
		instant: instant,
	})
	return SpanID(len(c.spans))
}

// Begin opens a span on the given track at the current sim time and
// returns its id. The returned id stays valid for SetAttr/End for the
// life of the collector.
func (c *Collector) Begin(cat Cat, name string) SpanID {
	return c.beginAt(cat, name, c.env.Now(), false)
}

// End closes the span at the current sim time. A zero id is a no-op.
func (c *Collector) End(id SpanID) {
	c.EndAt(id, c.env.Now())
}

// EndAt closes the span at an explicit time. A zero id is a no-op.
func (c *Collector) EndAt(id SpanID, at sim.Time) {
	if id == 0 {
		return
	}
	s := &c.spans[id-1]
	if !s.open {
		return
	}
	s.open = false
	s.end = at
	c.note(at)
}

// Emit records an already-complete span with explicit start and end.
func (c *Collector) Emit(cat Cat, name string, start, end sim.Time) SpanID {
	id := c.beginAt(cat, name, start, false)
	c.EndAt(id, end)
	return id
}

// Instant records a zero-duration mark at the current sim time. The
// returned id accepts SetAttr like any span.
func (c *Collector) Instant(cat Cat, name string) SpanID {
	return c.beginAt(cat, name, c.env.Now(), true)
}

// SetAttr attaches an integer attribute to a span. A zero id is a no-op.
func (c *Collector) SetAttr(id SpanID, key string, v int64) {
	if id == 0 {
		return
	}
	s := &c.spans[id-1]
	s.attrs = append(s.attrs, attrVal{key: key, i: v})
}

// SetAttrStr attaches a string attribute to a span. A zero id is a no-op.
func (c *Collector) SetAttrStr(id SpanID, key, v string) {
	if id == 0 {
		return
	}
	s := &c.spans[id-1]
	s.attrs = append(s.attrs, attrVal{key: key, s: v, isStr: true})
}

// Inc bumps a registered counter by one.
func (c *Collector) Inc(id CounterID) { c.reg.Add(id, 1) }

// attrInt returns the span's integer attribute named key, if present.
func (s *span) attrInt(key string) (int64, bool) {
	for _, a := range s.attrs {
		if !a.isStr && a.key == key {
			return a.i, true
		}
	}
	return 0, false
}

// StartSampling spawns the sampling stepper: every Interval of sim time
// it snapshots every registered metric into one columnar row. Metrics
// registered after the first tick are ignored for the rest of the run, so
// wire all layers before the environment runs. Requires Attach.
func (c *Collector) StartSampling() {
	if c.env == nil || c.smp.sp != nil {
		return
	}
	c.smp.Start(c.env)
}

// StopSampling ends sampling after the currently armed tick fires; the
// orchestrator calls it when the last job settles, so the samples end
// with the jobs even while fault repairs keep the event queue busy.
func (c *Collector) StopSampling() { c.smp.Stop() }

// SpanCount returns the number of recorded spans and instants.
func (c *Collector) SpanCount() int { return len(c.spans) }

// MaxTime returns the latest sim time the collector observed, from a
// span or a sampling tick; exporters and the analyzer close still-open
// spans at this time.
func (c *Collector) MaxTime() sim.Time {
	if n := len(c.smp.times); n > 0 && c.smp.times[n-1] > c.maxTime {
		return c.smp.times[n-1]
	}
	return c.maxTime
}

// SpanView is a read-only view of one recorded span or instant, handed
// to VisitSpans callbacks. Open spans (a permanent fault, a proc alive
// at exit) are presented with End clamped to MaxTime, matching how the
// trace exporter renders them.
type SpanView struct {
	Name    string
	Cat     Cat
	Start   sim.Time
	End     sim.Time
	Instant bool
	attrs   []attrVal
}

// AttrInt returns the span's integer attribute named key, if present.
func (v SpanView) AttrInt(key string) (int64, bool) {
	for _, a := range v.attrs {
		if !a.isStr && a.key == key {
			return a.i, true
		}
	}
	return 0, false
}

// AttrStr returns the span's string attribute named key, if present.
func (v SpanView) AttrStr(key string) (string, bool) {
	for _, a := range v.attrs {
		if a.isStr && a.key == key {
			return a.s, true
		}
	}
	return "", false
}

// VisitSpans calls f for every recorded span and instant in begin
// order — the deterministic order the trace exporter uses. It is the
// read path for post-hoc analysis (obs/analyze): no copy of the span
// table, no mutation.
func (c *Collector) VisitSpans(f func(SpanView)) {
	maxTime := c.MaxTime()
	for i := range c.spans {
		s := &c.spans[i]
		end := s.end
		if s.open {
			end = maxTime
		}
		f(SpanView{
			Name:    s.name,
			Cat:     s.cat,
			Start:   s.start,
			End:     end,
			Instant: s.instant,
			attrs:   s.attrs,
		})
	}
}
