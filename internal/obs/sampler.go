package obs

import (
	"fmt"
	"math"
	"strings"
	"time"

	"composable/internal/sim"
)

// Sampler snapshots every metric of a Registry on a fixed sim-time
// interval, one columnar row per tick — the periodic probe sweep the
// paper's tooling (nvidia-smi, wandb system metrics, the Falcon port
// monitors) runs on the real test bed. A Collector samples the fleet's
// registry through one; a training run samples its own per-run gauges.
//
// The sampler is a stepper, not a goroutine-backed process: each tick is
// one inline step (sample every metric, re-arm). Its first step only
// arms the first tick, so samples land one interval after Start. A tick
// that finds nothing else pending does not re-arm: the simulation is
// over, and re-arming would keep its event queue alive forever.
//
// A sampler can be started again once it has stopped and its last tick
// has fired (Pending): it then records a new run into the storage of
// the last one, so a sampler kept for reuse allocates nothing.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	env      *sim.Env
	proc     sim.Proc
	primed   bool // first step only arms the first tick
	stopped  bool
	pending  bool // a step is scheduled and has not run
	times    []sim.Time
	cols     [][]float64
}

// NewSampler returns a sampler over reg ticking every interval of sim
// time; a non-positive interval selects DefaultInterval.
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{reg: reg, interval: interval}
}

// Start spawns the sampling stepper on env. Metrics registered after
// Start are not sampled, so register every metric first. It runs until
// Stop, or until a tick finds nothing else pending on env. Starting a
// sampler again drops the samples of its previous run and reuses their
// storage; it panics while a tick of that run is still pending.
//
//perf:hot
func (s *Sampler) Start(env *sim.Env) {
	if s.pending {
		panic("obs: sampler started again before its last tick fired")
	}
	n := s.reg.Len()
	if cap(s.cols) < n {
		s.cols = make([][]float64, n)
	}
	s.cols = s.cols[:n]
	for i := range s.cols {
		s.cols[i] = s.cols[i][:0]
	}
	s.times = s.times[:0]
	s.env = env
	env.InitStepperFor(&s.proc, "obs-sampler", (*samplerStep)(s))
	s.primed = false
	s.stopped = false
	s.pending = true
	env.Ready(&s.proc)
}

// samplerStep is the Sampler as the stepper its proc drives; the
// conversion keeps Step off the Sampler's own method set.
type samplerStep Sampler

func (s *samplerStep) Step() { (*Sampler)(s).step() }

//perf:hot
func (s *Sampler) step() {
	s.pending = false
	if s.stopped {
		return
	}
	if !s.primed {
		s.primed = true
		s.arm()
		return
	}
	s.times = append(s.times, s.env.Now())
	for i := range s.cols {
		s.cols[i] = append(s.cols[i], s.reg.value(i))
	}
	if s.env.Idle() {
		return
	}
	s.arm()
}

// arm schedules the next tick one interval from now.
func (s *Sampler) arm() {
	s.pending = true
	s.env.ReadyAfter(&s.proc, s.interval)
}

// Stop ends sampling after the currently armed tick fires, so the event
// queue can drain. That tick still fires, as a no-op.
func (s *Sampler) Stop() { s.stopped = true }

// Pending reports whether a tick is scheduled that has not fired yet. A
// stopped sampler stays pending until its last armed tick has fired, and
// must not be started again before then: the stale tick would step the
// new run.
func (s *Sampler) Pending() bool { return s.pending }

// Len returns the number of ticks sampled.
func (s *Sampler) Len() int { return len(s.times) }

// Names returns the sampled metric names in registration order.
func (s *Sampler) Names() []string {
	out := make([]string, len(s.cols))
	for i := range out {
		out[i] = s.reg.Name(i)
	}
	return out
}

// Series returns the named metric's samples so far (nil if the metric
// is unknown or was registered after Start).
func (s *Sampler) Series(name string) *Series {
	i, ok := s.reg.lookup(name)
	if !ok || i >= len(s.cols) {
		return nil
	}
	return &Series{name: name, times: s.times, values: s.cols[i]}
}

// Series is a read-only view of one sampled metric: its column of a
// Sampler and the sampler's shared tick times.
type Series struct {
	name   string
	times  []sim.Time
	values []float64
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.values) }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max returns the largest sample (0 if empty).
func (s *Series) Max() float64 {
	out := math.Inf(-1)
	for _, v := range s.values {
		if v > out {
			out = v
		}
	}
	if math.IsInf(out, -1) {
		return 0
	}
	return out
}

// Min returns the smallest sample (0 if empty).
func (s *Series) Min() float64 {
	out := math.Inf(1)
	for _, v := range s.values {
		if v < out {
			out = v
		}
	}
	if math.IsInf(out, 1) {
		return 0
	}
	return out
}

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the series as a fixed-width ASCII chart, resampling by
// bucket means. It is the textual analog of the paper's Figure 9 panels.
func (s *Series) Sparkline(width int) string {
	if width <= 0 || len(s.values) == 0 {
		return ""
	}
	lo, hi := s.Min(), s.Max()
	if hi-lo < 1e-12 {
		hi = lo + 1
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		from := i * len(s.values) / width
		to := (i + 1) * len(s.values) / width
		if to <= from {
			to = from + 1
		}
		if from >= len(s.values) {
			break
		}
		if to > len(s.values) {
			to = len(s.values)
		}
		sum := 0.0
		for _, v := range s.values[from:to] {
			sum += v
		}
		mean := sum / float64(to-from)
		idx := int((mean - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// CSV renders "time_s,value" lines.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time_s,%s\n", s.name)
	for i := range s.values {
		fmt.Fprintf(&b, "%.3f,%.6f\n", s.times[i].Seconds(), s.values[i])
	}
	return b.String()
}
