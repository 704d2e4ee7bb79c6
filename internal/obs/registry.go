package obs

import (
	"io"
	"strconv"
)

// CounterID is the handle returned by Registry.Counter; hot paths bump
// counters through it with a slice index, never a map lookup.
type CounterID int

// metricKind separates monotonically bumped counters from
// sampled-on-demand gauges.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

// metric is one registered metric. Exactly one of count/gauge is live,
// selected by kind.
type metric struct {
	name  string
	kind  metricKind
	count int64
	gauge func() float64
}

// Registry holds a run's metrics in registration order. It is usable on
// its own — mcsd backs its /metrics endpoint with one, with no simulation
// attached — or inside a Collector, where the sampler snapshots every
// metric on a fixed sim-time interval. Like the Collector it is not safe
// for concurrent use; callers that share one across goroutines (mcsd)
// serialize with their own lock. Lookups by name scan the metrics: a
// registry holds a few dozen at most, and hot paths bump counters by ID,
// so a name index would cost every registry (one per training run) more
// than it saves.
type Registry struct {
	metrics []metric
}

// NewRegistry returns an empty registry with room for size metrics, for
// owners that know their metric count up front. The zero Registry is
// ready to use too.
func NewRegistry(size int) *Registry {
	return &Registry{metrics: make([]metric, 0, size)}
}

func (r *Registry) lookup(name string) (int, bool) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			return i, true
		}
	}
	return 0, false
}

func (r *Registry) add(m metric) int {
	r.metrics = append(r.metrics, m)
	return len(r.metrics) - 1
}

// Counter registers (or finds) a counter and returns its handle.
func (r *Registry) Counter(name string) CounterID {
	if i, ok := r.lookup(name); ok {
		return CounterID(i)
	}
	return CounterID(r.add(metric{name: name, kind: kindCounter}))
}

// Gauge registers a gauge sampled by fn. Re-registering a name replaces
// its sampler.
func (r *Registry) Gauge(name string, fn func() float64) {
	if i, ok := r.lookup(name); ok {
		r.metrics[i].kind = kindGauge
		r.metrics[i].gauge = fn
		return
	}
	r.add(metric{name: name, kind: kindGauge, gauge: fn})
}

// Add bumps a counter by delta.
func (r *Registry) Add(id CounterID, delta int64) {
	r.metrics[id].count += delta
}

// Inc bumps a counter by one.
func (r *Registry) Inc(id CounterID) { r.Add(id, 1) }

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Name returns the i-th metric's name, in registration order.
func (r *Registry) Name(i int) string { return r.metrics[i].name }

// CounterValue returns the named counter's current value (0 if unknown).
func (r *Registry) CounterValue(name string) int64 {
	if i, ok := r.lookup(name); ok {
		return r.metrics[i].count
	}
	return 0
}

// value snapshots the i-th metric: the running total for counters, one
// sampler call for gauges.
func (r *Registry) value(i int) float64 {
	m := &r.metrics[i]
	if m.kind == kindGauge {
		if m.gauge == nil {
			return 0
		}
		return m.gauge()
	}
	return float64(m.count)
}

// WriteText renders the registry as "name value" lines in registration
// order — the mcsd /metrics body. Counters print as integers, gauges with
// the canonical shortest float form, so the bytes are deterministic for a
// deterministic run.
func (r *Registry) WriteText(w io.Writer) error {
	b := make([]byte, 0, 64*len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		b = append(b, m.name...)
		b = append(b, ' ')
		if m.kind == kindCounter {
			b = strconv.AppendInt(b, m.count, 10)
		} else {
			b = strconv.AppendFloat(b, r.value(i), 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
