package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func statePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state.json")
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := capture(t, args...)
	if code != 0 {
		t.Fatalf("falconctl %v: exit %d, stderr %q", args, code, stderr)
	}
	return stdout
}

func TestUsageErrors(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	for _, args := range [][]string{
		nil,                               // no args
		{"-f", "x.json"},                  // no command
		{"x.json", "init", "extra"},       // missing -f
		{"-f", state, "frobnicate"},       // unknown command
		{"-f", state, "cable", "only"},    // wrong arity
		{"-f", state, "attach", "0", "3"}, // wrong arity
	} {
		code, _, stderr := capture(t, args...)
		if code != 2 || !strings.Contains(stderr, "usage: falconctl") {
			t.Errorf("falconctl %v: exit %d, stderr %q", args, code, stderr)
		}
	}
}

func TestMissingStateFileIsFatal(t *testing.T) {
	code, _, stderr := capture(t, "-f", statePath(t), "topology")
	if code != 1 || !strings.Contains(stderr, "init' first") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadNumberIsFatal(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	code, _, stderr := capture(t, "-f", state, "mode", "zero", "advanced")
	if code != 1 || !strings.Contains(stderr, "bad number") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestLifecycleRoundTrip scripts a full chassis build through the state
// file — init, cable, mode, install, attach, reassign — and checks each
// step persists for the next invocation, exactly how an admin scripts the
// GUI's workflow.
func TestLifecycleRoundTrip(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	mustRun(t, "-f", state, "cable", "H1", "host1")
	mustRun(t, "-f", state, "cable", "H2", "host2")
	mustRun(t, "-f", state, "mode", "0", "advanced")
	mustRun(t, "-f", state, "install", "0", "3", "GPU", "Tesla V100-PCIE-16GB")
	mustRun(t, "-f", state, "attach", "0", "3", "H1")

	if sum := mustRun(t, "-f", state, "summary"); !strings.Contains(sum, "GPUs 1") || !strings.Contains(sum, "attached 1") {
		t.Errorf("summary after attach: %q", sum)
	}
	// Dynamic re-allocation works because drawer 0 is in advanced mode.
	mustRun(t, "-f", state, "reassign", "0", "3", "H2")
	topo := mustRun(t, "-f", state, "topology")
	if !strings.Contains(topo, "H2 (host2)") {
		t.Errorf("topology after reassign:\n%s", topo)
	}
	events := mustRun(t, "-f", state, "events")
	if !strings.Contains(events, "configuration imported") {
		t.Errorf("event log:\n%s", events)
	}

	// Detach + remove round-trips back to an empty chassis.
	mustRun(t, "-f", state, "detach", "0", "3")
	mustRun(t, "-f", state, "remove", "0", "3")
	if sum := mustRun(t, "-f", state, "summary"); !strings.Contains(sum, "GPUs 0") {
		t.Errorf("summary after remove: %q", sum)
	}
}

func TestModeConstraintSurfacesAsError(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	mustRun(t, "-f", state, "cable", "H1", "host1")
	mustRun(t, "-f", state, "install", "0", "0", "GPU", "V100")
	// Standard mode: reassign requires advanced mode.
	code, _, stderr := capture(t, "-f", state, "reassign", "0", "0", "H1")
	if code != 1 || !strings.Contains(stderr, "advanced mode") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestReadOnlyCommandsDoNotRewriteState(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	before, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(state, before, 0o444); err != nil {
		t.Fatal(err)
	}
	// A read-only state file breaks mutations but not views.
	mustRun(t, "-f", state, "topology")
	mustRun(t, "-f", state, "summary")
	mustRun(t, "-f", state, "sensors")
}
