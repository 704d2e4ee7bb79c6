package main

import (
	"bufio"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
)

// A CPU profile is read through `go tool pprof -traces -lines`, whose
// output is one block per distinct stack:
//
//	-----------+-------------------------------------------------------
//	      10ms   runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1058
//	             composable/internal/falcon.(*Chassis).Install /src/internal/falcon/falcon.go:231
//
// The first line carries the stack's sampled time and its innermost frame;
// each following line is one caller.

// stack is one profiled stack: its sampled CPU time and its frames,
// innermost first.
type stack struct {
	seconds float64
	frames  []frame
}

type frame struct {
	fn, file string
	inline   bool // inlined into the next frame
}

// parseTraces reads `go tool pprof -traces -lines` output.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inStack := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inStack = true
			continue
		}
		fields := strings.Fields(line)
		if !inStack || len(fields) == 0 {
			continue // header lines before the first separator
		}
		if v, err := parseDuration(fields[0]); err == nil {
			// A value column: a new stack starts on this line. A
			// function name never parses as a number with a unit.
			out = append(out, stack{seconds: v})
			fields = fields[1:]
		}
		if len(out) == 0 || len(fields) == 0 {
			return nil, fmt.Errorf("pprof traces: frame before any value: %q", line)
		}
		f := frame{fn: fields[0], inline: fields[len(fields)-1] == "(inline)"}
		if len(fields) > 1 {
			f.file = fields[1]
			if i := strings.LastIndexByte(f.file, ':'); i > 0 {
				f.file = f.file[:i]
			}
		}
		s := &out[len(out)-1]
		s.frames = append(s.frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseDuration reads a pprof time value such as "10ms", "1.20s" or
// "1.50mins" and returns seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}

// modelPackages are the hardware and model layers the training engine
// drives, reported together as "models".
var modelPackages = map[string]bool{
	"dlmodel": true, "gpu": true, "pcie": true, "nvlink": true,
	"storage": true, "data": true, "hostcpu": true, "falcon": true,
}

const internalPrefix = "composable/internal/"

// layerOf charges a stack to the innermost frame that belongs to a package
// of the simulator, so runtime work such as malloc or a map probe counts
// toward the layer that asked for it. Frames of the benchmark itself
// (package main: the calibration kernel, span bookkeeping) go to "bench";
// a stack with neither, such as a background GC worker, goes to "runtime".
func layerOf(frames []frame) string {
	for i, f := range frames {
		if strings.HasPrefix(f.fn, "main.") {
			return "bench"
		}
		switch pkg := internalPkg(f.fn); {
		case pkg == "":
			continue
		case pkg == "fabric":
			return fabricPart(frames[i:])
		case modelPackages[pkg]:
			return "models"
		default:
			return pkg
		}
	}
	return "runtime"
}

// internalPkg returns the top-level simulator package a function belongs
// to, or "" for a function outside composable/internal.
func internalPkg(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// fabricPart splits the fabric by file: graph.go is routing, flow.go the
// waterfill. A fabric function inlined into another fabric function counts
// toward the one it was inlined into, which is where its CPU time is
// spent: link byte accounting is declared in graph.go, but inlined into
// the waterfill's advance step it is waterfill work.
func fabricPart(frames []frame) string {
	file := frames[0].file
	for _, f := range frames {
		if internalPkg(f.fn) != "fabric" {
			break
		}
		file = f.file
		if !f.inline {
			break
		}
	}
	switch path.Base(file) {
	case "graph.go":
		return "fabric.route"
	case "flow.go":
		return "fabric.flow"
	}
	return "fabric"
}

// cpuShares returns each layer's share of the profiled CPU time the
// simulator used: the benchmark's own frames are left out of the total.
func cpuShares(stacks []stack) map[string]float64 {
	by := map[string]float64{}
	total := 0.0
	for _, s := range stacks {
		l := layerOf(s.frames)
		by[l] += s.seconds
		if l != "bench" {
			total += s.seconds
		}
	}
	delete(by, "bench")
	if total > 0 {
		for l := range by {
			by[l] /= total
		}
	}
	return by
}
