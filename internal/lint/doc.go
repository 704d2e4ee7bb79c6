// Package lint is simlint: a static-analysis suite that mechanically
// enforces the repo's two load-bearing contracts — determinism and
// hot-path allocation discipline — which every layer since the sim core
// stakes its correctness on but which, before this package, lived only in
// code review and after-the-fact run-twice sweeps.
//
// # The determinism contract
//
// A simulation result must be a pure function of its inputs (seed,
// scenario, options): byte-identical fingerprints and rendered reports
// across runs, machines, and GOMAXPROCS settings. Three bug classes break
// it in practice, and each has an analyzer:
//
//   - nowallclock: sim-domain packages must not read the wall clock
//     (time.Now, time.Since, time.Sleep, timers) or draw from the shared
//     top-level math/rand source. Virtual time comes from sim.Env/Proc;
//     randomness comes from rand.New(rand.NewSource(seed)). Genuine
//     telemetry (a CLI reporting how long the suite took) goes through an
//     injected clock and is annotated at the single read site.
//
//   - maporder: Go map iteration order is randomized per run, so a
//     `range` over a map in any function reachable from a
//     Fingerprint/Render/CSV-output path is a nondeterministic-output bug
//     waiting to ship. Iterate via detmap.SortedKeys (or a local
//     sortedKeys helper, which the analyzer recognizes as the sanctioned
//     sorted-iteration point) or annotate the site with a reason why
//     order cannot leak (e.g. the loop only builds a set).
//
//   - goroutine: the engine schedules exactly one process at a time;
//     a raw `go` statement inside a sim.Proc body escapes the
//     deterministic scheduler and races virtual time. Spawn processes
//     with Env.Go instead.
//
// # The hot-path contract
//
// hotalloc guards the allocation-free work (PR 2, ROADMAP item 2):
// functions annotated `//perf:hot` must not use the known allocators —
// fmt.Sprintf/Sprint/Sprintln, string concatenation inside loops,
// map/slice composite literals, make(map)/make(chan), or closure
// literals. The annotation is a ratchet: once a function is marked hot
// and clean, a regression fails the lint gate instead of showing up two
// PRs later as a 10x allocs/op jump in BENCH_*.json.
//
// # The dead-API check
//
// deadapi flags exported functions, methods and types under internal/
// that no shipped code references, so API that nothing ships does not
// grow back after it is deleted. Shipped code is the non-test files of
// the packages that a main package reaches through non-test imports; a
// package only tests import (internal/sim/simtest, say) is test code:
// its references do not count and its own API is not judged. The mains
// are those of the main module and of the benchmark module (bench/),
// whose references are matched by package path, receiver and name
// because it is loaded as a separate module. A method that implements any interface type in the
// program, the standard library's included, is live. Only direct
// references count: an item used only by another dead item is flagged
// once that one is deleted. Deliberate test hooks carry
// //lint:allow deadapi(reason) naming the test or oracle that needs them.
//
// deadapi needs the whole program at once, so it runs only in
// whole-program mode (RunProgram: `simlint ./...` and the repo-wide
// self-test), never in vet-tool mode, which sees one package at a time.
//
// # Annotation grammar
//
// Two comment directives, both requiring written reasons:
//
//	//perf:hot
//	//perf:hot <free-text note>
//
// marks the function whose doc comment contains it as hot-path (hotalloc
// scope). And
//
//	//lint:allow <analyzer>(<reason>)
//
// suppresses <analyzer>'s diagnostics on the same line or the line
// directly below. The reason is mandatory; an empty or missing reason is
// itself a diagnostic. Example:
//
//	//lint:allow maporder(order-insensitive: loop only counts entries)
//	for _, p := range c.ports {
//
// # Running simlint
//
// In-process, the whole program (what the repo-wide self-test does):
//
//	pkgs, callers, _ := lint.LoadProgram()
//	diags, _ := lint.RunProgram(pkgs, callers)
//
// or the per-package analyzers over chosen packages (what the perfbench
// entry times):
//
//	pkgs, _ := lint.Load("composable/...")
//	diags, _ := lint.RunAnalyzers(pkgs, lint.Analyzers()...)
//
// From the command line, standalone (whole program for ./..., deadapi
// included) or as a vet tool (per package, no deadapi):
//
//	go run ./cmd/simlint ./...
//	go build -o /tmp/simlint ./cmd/simlint && go vet -vettool=/tmp/simlint ./...
//
// Both modes load full type information; the vet-tool mode speaks the go
// command's unitchecker .cfg protocol, so it composes with the build
// cache and lints test files too. Analyzers skip _test.go files: tests
// may legitimately measure wall time and iterate maps they then sort.
package lint
