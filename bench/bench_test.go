package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when it
// is re-executed as a set-up child.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.gen(1), w.gen(1), w.gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

// stubScenario finishes instantly with a fixed digest.
type stubScenario struct{}

func (stubScenario) run(attach) (outcome, error) {
	return outcome{digest: [32]byte{1}, simTime: time.Second, events: 1}, nil
}

func TestDigestMismatchCountsAsFailed(t *testing.T) {
	p := pins{CalibRefS: 0.005, Digests: map[string]map[string]string{
		"stub": {"1": strings.Repeat("ab", 32)}, // not what stubScenario produces
	}}
	cfg := config{
		workload: workload{name: "stub", gen: func(int64) scenario { return stubScenario{} }},
		seed:     1, trace: true, n: 2, tracedN: 2, obsN: 1, checkN: 1, outDir: t.TempDir(),
	}
	res, err := runWorkload(cfg, p, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("correct=%t failed=%d attempted=%d: every scenario should fail its digest",
			res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["failed_frac"].Value; got != 1 {
		t.Fatalf("failed_frac = %v, want 1", got)
	}
}

// TestSmokeEveryWorkload runs each workload in both modes with two timed
// scenarios and checks that the output names exactly the metrics
// BENCHMARK.json lists, with their units, and that seed 1 reproduces its
// pinned digest.
func TestSmokeEveryWorkload(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}

	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			// The check pass runs once per workload: on the pod fleets
			// the network auditor makes it the costliest scenario.
			cfg := config{workload: w, seed: 1, trace: trace, n: 2, tracedN: 2, obsN: 1, setups: 1, outDir: t.TempDir()}
			if trace {
				cfg.checkN = 1
			}
			t0 := time.Now()
			res, err := runWorkload(cfg, p, os.Stderr)
			t.Logf("%s trace=%t: %v", w.name, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%t: %d of %d scenarios failed", w.name, trace, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, w.name, out.String(), want[trace])
		}
	}
	if el := time.Since(start); el > 30*time.Second && testing.Short() {
		t.Errorf("smoke run took %v, want under 30s", el)
	}
}

// checkOutput checks one process's output: a "name value unit" line per
// expected metric and nothing else, then the JSON summary line with exactly
// the keys the benchmark contract names.
func checkOutput(t *testing.T, workload, out string, want map[string]string) {
	t.Helper()
	lines := splitLines(out)
	got := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Errorf("%s: malformed metric line %q", workload, l)
			continue
		}
		got[f[0]] = f[2]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: metrics printed %v\nwant (BENCHMARK.json) %v", workload, sortedKeys(got), sortedKeys(want))
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", workload, name, got[name], unit)
			}
		}
	}
	var summary map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if keys := sortedKeys(summary); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: summary keys %v", workload, keys)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(summary["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: summary holds %d metrics, want %d", workload, len(metrics), len(want))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
