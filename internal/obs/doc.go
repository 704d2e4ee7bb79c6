// Package obs is the simulator's observability layer: sim-time-native
// span tracing, sampled metrics, and deterministic exporters, built for
// the same two contracts the rest of the repo lives under.
//
// Determinism: nothing in this package reads the wall clock or iterates a
// map. Spans are stored in begin order, metrics in registration order, and
// samples on a fixed sim-time interval, so every exporter —
// Chrome trace_event JSON ([Collector.WriteTrace], loadable in Perfetto or
// chrome://tracing with sim time mapped to microseconds), metrics CSV
// ([Collector.WriteMetricsCSV]) and the ASCII run summary
// ([Collector.Summary]) — emits byte-identical output for byte-identical
// runs. The run-twice CLI tests and the golden trace test pin this.
//
// Zero overhead when off: every instrumented seam in sim, fabric, train,
// orchestrator and faults guards its emit with a nil check
// (`if c != nil { c.Begin(...) }`), so a disabled collector costs one
// predictable branch and no allocations — the AllocsPerRun gates in
// internal/perfbench run the instrumented code with a nil collector and
// hold the pre-instrumentation ceilings. The guarded-call pattern itself
// is pinned as a simlint hotalloc golden package (testdata/src/obsguard).
//
// Sampling has one implementation, [Sampler]: a stepper that snapshots
// every metric of a [Registry] into one columnar row per sim-time tick.
// The Collector samples the fleet registry through one, and every
// training run samples its own GPU/CPU/memory/Falcon gauges through
// another (exposed as train.Result.Samples). A [Series] is a read-only
// view of one sampled column; a [Track] is an annotated event series (the
// fault timeline). Their CSV, sparkline and timeline renderers are
// byte-stable for byte-identical runs.
package obs
