// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Tables I–IV and Figures 9–16. Each experiment renders a
// text report shaped like the paper's artifact and exposes structured
// results for tests and benchmarks.
//
// Experiments share training runs through a Session: Figures 10–14 are
// different views of the same fifteen (workload × GPU-configuration) runs,
// exactly as in the paper.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/gpu"
	"composable/internal/sim"
	"composable/internal/train"
)

// Scale sets how much of each training run is simulated. Simulated epochs
// are shortened subsets of the real ones (per-epoch fixed costs are scaled
// accordingly by the training engine), so Quick and Standard produce the
// same shapes at different statistical quality.
type Scale struct {
	Name          string
	ItersPerEpoch int
	// MaxEpochs caps the paper's epoch counts (20-epoch ImageNet runs
	// add nothing to the measured ratios).
	MaxEpochs int
}

// Predefined scales.
var (
	Quick    = Scale{Name: "quick", ItersPerEpoch: 10, MaxEpochs: 2}
	Standard = Scale{Name: "standard", ItersPerEpoch: 30, MaxEpochs: 3}
)

func (s Scale) epochs(paper int) int {
	if paper > s.MaxEpochs {
		return s.MaxEpochs
	}
	return paper
}

// Session caches training runs across experiments. It is safe for
// concurrent use: experiments running on separate goroutines that need the
// same (configuration × workload × options) run share one in-flight
// train.Run — the first caller executes it, later callers block on the
// same entry and receive the same *train.Result (singleflight), so a run
// is never raced or duplicated.
type Session struct {
	Scale Scale

	mu    sync.Mutex
	cache map[string]*sessionRun
	stats Stats
}

// sessionRun is one cached-or-in-flight training run. done is closed once
// res/err are set; waiters block on it without holding the session lock.
type sessionRun struct {
	done chan struct{}
	res  *train.Result
	err  error
}

// Stats counts the session's cache behavior — the runner surfaces these as
// telemetry so a parallel suite can show how much work deduplication saved.
type Stats struct {
	// TrainRuns is the number of training runs actually executed.
	TrainRuns int
	// CacheHits is the number of requests served from a completed run.
	CacheHits int
	// Joins is the number of requests that blocked on a run another
	// goroutine had in flight (the deduplicated races).
	Joins int
}

// NewSession creates an empty session at the given scale.
func NewSession(scale Scale) *Session {
	return &Session{Scale: scale, cache: make(map[string]*sessionRun)}
}

// Stats returns a snapshot of the session's cache counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// GPU configurations used by the GPU-focused figures (Table III top).
func gpuConfigs() []cluster.Config {
	return []cluster.Config{
		cluster.LocalGPUsConfig(), cluster.HybridGPUsConfig(), cluster.FalconGPUsConfig(),
	}
}

// storageConfigs used by Figure 15 (Table III bottom; localGPUs is the
// baseline).
func storageConfigs() []cluster.Config {
	return []cluster.Config{cluster.LocalNVMeConfig(), cluster.FalconNVMeConfig()}
}

// RunOpts returns the (cached) result of training w on cfg with the
// given strategy/precision overrides at the session scale. opts.Workload,
// ItersPerEpoch and Epochs are filled from the session.
func (s *Session) RunOpts(cfg cluster.Config, w dlmodel.Workload, opts train.Options) (*train.Result, error) {
	opts.Workload = w
	if opts.ItersPerEpoch == 0 {
		opts.ItersPerEpoch = s.Scale.ItersPerEpoch
	}
	if opts.Epochs == 0 {
		opts.Epochs = s.Scale.epochs(w.Epochs)
	}
	// The key covers the full configuration struct and every
	// outcome-relevant option.
	key := fmt.Sprintf("%+v|%s", cfg, opts.Fingerprint())

	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		// Completed entries return immediately (the channel is closed);
		// in-flight ones make this caller a join on the leader's run.
		select {
		case <-r.done:
			s.stats.CacheHits++
		default:
			s.stats.Joins++
		}
		s.mu.Unlock()
		<-r.done
		return r.res, r.err
	}
	r := &sessionRun{done: make(chan struct{})}
	s.cache[key] = r
	s.stats.TrainRuns++
	s.mu.Unlock()

	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err == nil {
		r.res, r.err = train.Run(sys, opts)
	} else {
		r.err = err
	}
	if r.err != nil {
		// Failed runs are not cached: evict so a later call may retry.
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
	}
	close(r.done)
	return r.res, r.err
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Run renders the report at the session's scale.
	Run func(s *Session) (string, error)
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Table I: Software Stack Details", func(s *Session) (string, error) { return TableI(), nil }},
		{"T2", "Table II: Characteristics of the Evaluated DL Benchmarks", func(s *Session) (string, error) { return TableIIReport(), nil }},
		{"T3", "Table III: Composable Host Configurations", func(s *Session) (string, error) { return TableIIIReport(), nil }},
		{"T4", "Table IV: GPU-GPU Bandwidth, Latency, and Protocol", func(s *Session) (string, error) { return TableIVReport() }},
		{"F9", "Figure 9: GPU Utilization Patterns", Figure9},
		{"F10", "Figure 10: GPU Performance on the Composable Configurations", Figure10},
		{"F11", "Figure 11: Training-Time Change vs localGPUs (PCIe switching)", Figure11},
		{"F12", "Figure 12: PCIe Data Transfer Rate for Falcon-attached GPUs", Figure12},
		{"F13", "Figure 13: CPU Utilization", Figure13},
		{"F14", "Figure 14: System Memory Utilization", Figure14},
		{"F15", "Figure 15: Training-Time Change vs localGPUs (storage)", Figure15},
		{"F16", "Figure 16: Software-level Optimizations on BERT-large", Figure16},
	}
}

// registry is the full experiment catalog — paper artifacts then
// extensions — indexed once instead of rebuilt on every lookup.
type registry struct {
	order []Experiment
	byID  map[string]Experiment
}

var catalog = sync.OnceValue(func() *registry {
	r := &registry{byID: make(map[string]Experiment)}
	r.order = append(append(append(All(), Extensions()...), FleetExperiments()...), RecoveryExperiments()...)
	for _, e := range r.order {
		r.byID[e.ID] = e
	}
	return r
})

// Registry returns every experiment — paper artifacts then extensions — in
// paper order. The returned slice is the caller's to mutate.
func Registry() []Experiment {
	return append([]Experiment(nil), catalog().order...)
}

// ByID finds an experiment among the paper artifacts and the extensions.
func ByID(id string) (Experiment, error) {
	if e, ok := catalog().byID[id]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have T1-T4, F9-F16, A1-A4, X1-X2, S1-S5, R1-R3)", id)
}

// PercentChange is the paper's Figure 11/15 metric: how much slower (+) or
// faster (−) a configuration trains than the localGPUs baseline.
func PercentChange(base, other *train.Result) float64 {
	return (other.TotalTime.Seconds()/base.TotalTime.Seconds() - 1) * 100
}

// sortedKeys helps render deterministic maps.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fp16DDP is the default software configuration of §V-C: all headline
// experiments use mixed precision and DistributedDataParallel.
func fp16DDP() train.Options {
	return train.Options{Precision: gpu.FP16, Strategy: train.DDP}
}
