package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the falconctl golden files")

// TestEventsGolden pins `falconctl events` byte for byte. Every command
// replays the state file through the chassis import path, so the log it
// prints is the import replay: cabling, modes, installs of each device
// type, attaches (one of them a re-assignment) and the closing import
// line. Regenerate with `go test ./cmd/falconctl -run TestEventsGolden
// -update` after an intentional output change.
func TestEventsGolden(t *testing.T) {
	state := statePath(t)
	mustRun(t, "-f", state, "init")
	checkGolden(t, "events_empty.golden", mustRun(t, "-f", state, "events"))
	for _, args := range [][]string{
		{"cable", "H1", "host1"},
		{"cable", "H2", "host2"},
		{"cable", "H3", "host3"},
		{"mode", "0", "advanced"},
		{"mode", "1", "standard-2host"},
		{"install", "0", "0", "GPU", "Tesla V100-PCIE-16GB"},
		{"install", "0", "1", "NVMe", "Intel P4510"},
		{"install", "0", "2", "NIC", "ConnectX-6"},
		{"install", "1", "4", "Custom", "Alveo U250"},
		{"attach", "0", "0", "H1"},
		{"attach", "0", "1", "H2"},
		{"reassign", "0", "0", "H3"},
		{"attach", "1", "4", "H2"},
		{"detach", "0", "1"},
		{"remove", "0", "1"},
	} {
		mustRun(t, append([]string{"-f", state}, args...)...)
	}
	// A rejected attach is not saved, so it never reaches the replay.
	if code, _, _ := capture(t, "-f", state, "attach", "1", "5", "H3"); code != 1 {
		t.Fatalf("half-split violation accepted: exit %d", code)
	}
	checkGolden(t, "events.golden", mustRun(t, "-f", state, "events"))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
