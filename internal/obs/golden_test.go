package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"composable/internal/obs"
	"composable/internal/scengen"
	"composable/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// goldenScenario is a small fixed faulty fleet run that exercises every
// instrumented layer: jobs schedule (orchestrator/train/fabric/sim) and a
// repairable GPU fault fires mid-run (faults).
func goldenScenario() scengen.FleetScenario {
	sc := scengen.FleetFromSeed(1)
	sc.Jobs = sc.Jobs[:3]
	sc.Plan = scengen.PlanForFleet(3, sc)
	return scengen.SanitizeFleet(sc)
}

func runGolden(t *testing.T) *obs.Collector {
	t.Helper()
	c := obs.NewCollector()
	out, err := scengen.RunFleet(sim.NewEnv(), goldenScenario(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenTrace pins the Chrome trace exporter byte for byte: the fixed
// scenario's trace must match the checked-in file exactly, parse as valid
// JSON, and contain spans from all five instrumented layers. Regenerate
// with `go test ./internal/obs -run TestGoldenTrace -update` after an
// intentional format or instrumentation change.
//
// Adding a category (CatMCS, CatAnalyze) does NOT require a regen: the
// exporter emits a track's process metadata on demand, the first time a
// span lands on it, so categories unused by this scenario leave the
// golden bytes untouched.
func TestGoldenTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := runGolden(t).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fleet_trace.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace bytes diverge from %s (%d vs %d bytes); rerun with -update if intentional",
			golden, buf.Len(), len(want))
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			seen[e.Cat] = true
		}
	}
	for _, cat := range []string{"sim", "fabric", "train", "orchestrator", "faults"} {
		if !seen[cat] {
			t.Errorf("trace has no spans on the %q track", cat)
		}
	}
}

// TestTraceRunTwiceIdentical pins determinism at the exporter level: two
// fresh runs of the same scenario produce byte-identical traces and
// metrics CSVs.
func TestTraceRunTwiceIdentical(t *testing.T) {
	var t1, t2, m1, m2 bytes.Buffer
	a, b := runGolden(t), runGolden(t)
	if err := a.WriteTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteMetricsCSV(&m1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetricsCSV(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("trace bytes differ between two identical runs")
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Error("metrics CSV bytes differ between two identical runs")
	}
}

// TestTraceFiltered pins the tenant-scoped cut mcsd serves: only spans
// carrying the requested job attribute survive, and counter samples are
// omitted.
func TestTraceFiltered(t *testing.T) {
	c := runGolden(t)
	var buf bytes.Buffer
	if err := c.WriteTraceFiltered(&buf, "job", 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("filtered trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "C":
			t.Fatal("filtered trace must not carry fleet-global counter samples")
		case "X", "i":
			spans++
			if v, ok := e.Args["job"].(float64); !ok || int(v) != 0 {
				t.Fatalf("filtered trace leaked a span with job attr %v", e.Args["job"])
			}
		}
	}
	if spans == 0 {
		t.Fatal("filtered trace for job 0 is empty")
	}
}
