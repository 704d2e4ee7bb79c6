package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 7 {
		t.Fatalf("parsed %d stacks, want 7", len(stacks))
	}
	if s := stacks[0]; s.seconds != 1.2 || len(s.frames) != 6 ||
		s.frames[0] != (frame{fn: "composable/internal/fabric.heapPop", file: "/src/internal/fabric/graph.go"}) {
		t.Errorf("first stack = %+v", s)
	}
	if f := stacks[1].frames[2]; f.file != "/src/internal/sim/sim.go" || !f.inline {
		t.Errorf("an (inline) frame parsed as %+v", f)
	}
	if stacks[1].frames[0].inline {
		t.Error("a frame without (inline) parsed as inlined")
	}

	cases := []struct {
		stack int
		want  string
		why   string
	}{
		{0, "fabric.route", "Dijkstra in graph.go is routing, though flow.go called it"},
		{1, "fabric.flow", "the waterfill in flow.go, though the sim dispatched it"},
		{2, "models", "malloc is charged to its internal caller, falcon"},
		{3, "runtime", "a background GC sample has no internal frame"},
		{4, "bench", "the calibration kernel is the benchmark's own"},
		{5, "obs", "a subpackage is charged to its top-level package"},
		{6, "fabric.flow", "graph.go link accounting inlined into the waterfill is waterfill work"},
	}
	for _, c := range cases {
		if got := layerOf(stacks[c.stack].frames); got != c.want {
			t.Errorf("stack %d: layer %q, want %q (%s)", c.stack, got, c.want, c.why)
		}
	}

	shares := cpuShares(stacks)
	const simTotal = 1.2 + 0.3 + 0.2 + 0.1 + 0.01 + 0.04 // everything but the bench stack
	for layer, want := range map[string]float64{
		"fabric.route": 1.2 / simTotal, "fabric.flow": (0.3 + 0.04) / simTotal,
		"models": 0.2 / simTotal, "runtime": 0.1 / simTotal, "obs": 0.01 / simTotal,
	} {
		if got := shares[layer]; math.Abs(got-want) > 1e-12 {
			t.Errorf("share %s = %v, want %v", layer, got, want)
		}
	}
	if _, ok := shares["bench"]; ok {
		t.Error("the benchmark's own frames must not get a share")
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.20s": 1.2, "500us": 5e-4, "2.50mins": 150, "7ns": 7e-9,
	} {
		if got, err := parseDuration(in); err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"runtime.gcDrainMarkWorkers", "ms", "10"} {
		if _, err := parseDuration(in); err == nil {
			t.Errorf("parseDuration(%q) accepted a non-time", in)
		}
	}
}
