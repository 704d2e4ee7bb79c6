package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the composer golden files")

// TestSingleCellGolden pins the single-cell report byte for byte,
// including the GPU util sparkline and the -csv series export, and the
// stderr line that lists the series names when -csv names an unknown
// one. Regenerate with `go test ./cmd/composer -run TestSingleCellGolden
// -update` after an intentional output change.
func TestSingleCellGolden(t *testing.T) {
	for _, tc := range []struct {
		series string
		code   int
	}{
		{"gpu_util", 0},
		{"falcon_pcie_gbps", 0},
		{"nope", 1},
	} {
		t.Run(tc.series, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, "-config", "falconGPUs", "-model", "BERT",
				"-epochs", "1", "-iters", "10", "-csv", tc.series)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr)
			}
			checkGolden(t, "csv_"+tc.series+".stdout", stdout)
			if tc.code == 0 {
				if stderr != "" {
					t.Errorf("unexpected stderr: %s", stderr)
				}
				return
			}
			checkGolden(t, "csv_"+tc.series+".stderr", stderr)
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
