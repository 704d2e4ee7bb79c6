// Package analyze is the deterministic trace-analytics engine built on
// internal/obs: it consumes a Collector's recorded spans (or a
// re-loaded Chrome-trace JSON export) post-hoc and answers the
// questions the raw trace only shows visually — where did each job's
// time go, what is p99 wait, is the fleet inside its SLO.
//
// The engine runs entirely off the hot path: nothing here is called
// during a simulation, so the zero-alloc probe contract and the
// AllocsPerRun gates of the instrumented layers are untouched.
//
// # Attribution
//
// A job's wall time — arrival to final drain — is tiled exactly, with
// no gaps and no double counting, into six buckets:
//
//	wait        queued, holding no GPUs (orchestrator "wait" spans)
//	compose     fabric attach/recompose before launch ("compose" spans)
//	compute     productive training inside a "run" span
//	checkpoint  checkpoint writes (train "checkpoint" spans)
//	restore     checkpoint restore after a requeue ("restore" spans)
//	winddown    a killed attempt draining between the kill instant and
//	            the attempt's drain (work past the last epoch boundary
//	            is the lost-work the orchestrator accounts)
//
// The tiling is the job's critical path: an ordered, gapless list of
// segments whose durations sum to the wall span exactly (int64
// nanoseconds — a property test sweeps 100 seeded scenarios to pin
// this ledger balance). Summing buckets across jobs yields fleet-wide
// blame totals.
//
// # Histograms and percentiles
//
// Job latency (wall), queue wait, and per-episode recomposition cost
// feed fixed log₂-bucket histograms that also retain their sorted raw
// values, so p50/p90/p99 are exact nearest-rank percentiles rather
// than bucket interpolations. Identical runs produce identical bytes.
//
// # SLOs
//
// ParseSLO accepts a declarative clause list such as
//
//	p99-wait<=800ms goodput>=2.5 util>=0.4 max-failed<=0
//
// and Evaluate scores it against an Analysis plus optional FleetStats
// into a machine-readable HealthReport with per-check verdicts.
// Clauses that need run-level metrics a bare trace file cannot supply
// (goodput, utilization) are reported as skipped, not failed, when
// stats are unknown.
//
// `fleetsim analyze` is the CLI front end; fleetsim's run and chaos
// modes expose the same engine via -report/-slo, and mcsd serves it on
// admin GET /api/health.
package analyze
