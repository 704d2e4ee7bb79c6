package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fleetsim golden files")

// goldenCases pin every mode's stdout and exit code byte for byte. An
// argument {trace}, {metrics} or {o} names a file the case writes; the
// golden record keeps its SHA-256 rather than its bytes (traces run to
// hundreds of KB). {trace:NAME} reads the trace an earlier case wrote.
var goldenCases = []struct {
	name string
	args []string
}{
	{"run-seed1", []string{"-seed", "1", "-fingerprint"}},
	{"run-pod11", []string{"-seed", "11", "-pod", "-fingerprint"}},
	{"run-fault3-exports", []string{"-seed", "1", "-fault-seed", "3", "-trace", "{trace}", "-metrics", "{metrics}"}},
	{"run-overrides", []string{"-seed", "3", "-policy", "firstfit", "-hosts", "2", "-gpus", "6", "-jobs", "3", "-attach-ms", "0"}},
	{"run-pod-shape", []string{"-seed", "7", "-pods", "2", "-chassis-per-pod", "2", "-oversub", "8"}},
	{"run-warm-report", []string{"-seed", "7", "-policy", "firstfit", "-hosts", "3", "-gpus", "12", "-warm", "-report"}},
	{"run-fault2-slo", []string{"-seed", "1", "-fault-seed", "2", "-slo", "p99-wait<=1m max-failed<=0", "-fingerprint"}},
	{"run-slo-violated", []string{"-seed", "1", "-slo", "p99-latency<=1ns"}},
	{"run-list-policies", []string{"-list-policies"}},
	{"chaos-seed1", []string{"chaos", "-seed", "1", "-fingerprint"}},
	{"chaos-pod5", []string{"chaos", "-seed", "5", "-pod", "-fingerprint"}},
	{"chaos-fault9", []string{"chaos", "-seed", "1", "-fault-seed", "9", "-fingerprint"}},
	{"chaos-static-fault9", []string{"chaos", "-seed", "1", "-policy", "static", "-fault-seed", "9", "-hosts", "2", "-fingerprint"}},
	{"chaos-clamped", []string{"chaos", "-seed", "4", "-hosts", "9", "-gpus", "40", "-fingerprint"}},
	{"chaos-pod-shape", []string{"chaos", "-seed", "3", "-pods", "2", "-chassis-per-pod", "2", "-oversub", "4", "-fingerprint"}},
	{"chaos-retries-report", []string{"chaos", "-seed", "1", "-retries", "1", "-report"}},
	{"chaos-exports", []string{"chaos", "-seed", "2", "-trace", "{trace}", "-metrics", "{metrics}", "-metrics-interval", "50"}},
	{"analyze-json-o", []string{"analyze", "-seed", "1", "-fault-seed", "3", "-json", "-slo", "p99-wait<=60s max-failed<=1", "-o", "{o}"}},
	{"analyze-trace", []string{"analyze", "-seed", "1", "-fault-seed", "3", "-trace", "{trace}"}},
	{"analyze-file", []string{"analyze", "-file", "{trace:analyze-trace}"}},
	{"analyze-file-slo", []string{"analyze", "-file", "{trace:analyze-trace}", "-slo", "goodput>=1e9"}},
	{"analyze-json-top3", []string{"analyze", "-seed", "2", "-json", "-top", "3"}},
	{"analyze-pod-jobs4", []string{"analyze", "-seed", "1", "-pod", "-jobs", "4"}},
	{"analyze-slo-violated", []string{"analyze", "-seed", "1", "-slo", "p99-latency<=1ns"}},
}

// TestCLIGolden pins the CLI's output in every mode. Each case records
// `exit N` and one `<kind> <sha256>` line per written file in
// testdata/NAME.meta, and stdout verbatim in testdata/NAME.stdout.
// Regenerate with `go test ./cmd/fleetsim -run TestCLIGolden -update`
// after an intentional output change.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var args, written []string
			meta := map[string]string{}
			for _, a := range tc.args {
				if !strings.HasPrefix(a, "{") {
					args = append(args, a)
					continue
				}
				kind, owner, _ := strings.Cut(strings.Trim(a, "{}"), ":")
				if owner == "" {
					owner = tc.name
					written = append(written, kind)
				}
				meta[kind] = filepath.Join(dir, owner+"."+kind)
				args = append(args, meta[kind])
			}
			code, stdout, stderr := capture(t, args...)
			rec := fmt.Sprintf("exit %d\n", code)
			for _, kind := range written {
				b, err := os.ReadFile(meta[kind])
				if err != nil {
					t.Fatalf("%v; stderr: %s", err, stderr)
				}
				sum := sha256.Sum256(b)
				rec += kind + " " + hex.EncodeToString(sum[:]) + "\n"
			}
			checkGolden(t, tc.name+".meta", rec)
			checkGolden(t, tc.name+".stdout", stdout)
		})
	}
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
