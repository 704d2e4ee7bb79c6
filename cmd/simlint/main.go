// Command simlint runs the repo's determinism, hot-path and dead-API
// analyzers (internal/lint): nowallclock, maporder, hotalloc, goroutine
// and deadapi, which flags exported API under internal/ that no shipped
// code (what a main package reaches, outside _test.go files) references.
//
// It speaks two protocols:
//
//   - Standalone: `simlint ./...` (or any go package patterns) loads the
//     packages via the toolchain and prints findings. With `./...`, the
//     default, it loads the whole program, the benchmark module included
//     as a caller, and also runs deadapi; with other patterns it runs the
//     per-package analyzers only.
//
//   - Vet tool: `go vet -vettool=$(which simlint) ./...` — the go command
//     invokes simlint once per package with a .cfg file (the unitchecker
//     protocol), which adds build-cache integration and test-file
//     coverage. It sees one package at a time, so it cannot run deadapi.
//
// Exit status: 0 clean, 1 operational error, 2 findings (vet mode).
//
// Usage:
//
//	simlint ./...
//	simlint composable/internal/sim composable/internal/fabric
//	go build -o /tmp/simlint ./cmd/simlint && go vet -vettool=/tmp/simlint ./...
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"composable/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable main: mode dispatch between the vet-tool protocol
// handshakes, the per-package .cfg protocol, and the standalone loader.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			lint.PrintVersion(stdout)
			return 0
		case args[0] == "-flags":
			lint.PrintFlags(stdout)
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return lint.RunUnitChecker(args[0], lint.Analyzers(), stdout, stderr)
		}
	}
	var (
		pkgs  []*lint.Package
		diags []lint.Diagnostic
		err   error
	)
	if len(args) == 0 || len(args) == 1 && args[0] == "./..." {
		var callers []*lint.Package
		if pkgs, callers, err = lint.LoadProgram(); err == nil {
			diags, err = lint.RunProgram(pkgs, callers)
		}
	} else if pkgs, err = lint.Load(args...); err == nil {
		diags, err = lint.RunAnalyzers(pkgs, lint.Analyzers()...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 2
	}
	return 0
}
