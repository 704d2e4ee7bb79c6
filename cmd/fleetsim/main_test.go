package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

func TestBadFlagRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"analyze", "-no-such-flag"},
		{"simulate", "-seed", "1"}, // unknown mode
		{"run", "-seed", "1"},      // run mode takes no name
		{"-file", "trace.json"},    // analyze-only flags
		{"-seed", "1", "-o", "out.txt"},
	} {
		if code, _, _ := capture(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	for _, mode := range [][]string{nil, {"analyze"}} {
		code, _, stderr := capture(t, append(mode, "-policy", "wishful")...)
		if code != 2 || !strings.Contains(stderr, "unknown policy") {
			t.Fatalf("%s: exit %d, stderr %q", mode, code, stderr)
		}
	}
}

// TestChaosBadFlagsRejected pins chaos mode's flag handling: unknown
// flags, analyze-only flags and unknown policies all exit 2.
func TestChaosBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"chaos", "-no-such-flag"},
		{"chaos", "-json"},
	} {
		if code, _, _ := capture(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, stderr := capture(t, "chaos", "-policy", "nope"); code != 2 || !strings.Contains(stderr, "unknown policy") {
		t.Fatalf("bad policy: exit %d, stderr %q", code, stderr)
	}
}

func TestListPolicies(t *testing.T) {
	code, stdout, _ := capture(t, "-list-policies")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"firstfit", "drawer", "bandwidth", "static"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("policy list missing %q:\n%s", want, stdout)
		}
	}
}

// TestSeededRunDeterministic is the CLI face of the acceptance criterion:
// the same seed must print byte-identical telemetry, fingerprint included.
func TestSeededRunDeterministic(t *testing.T) {
	code1, out1, err1 := capture(t, "-seed", "42", "-fingerprint")
	code2, out2, err2 := capture(t, "-seed", "42", "-fingerprint")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q %q", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatalf("two runs of the same seed diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "--- fingerprint") || !strings.Contains(out1, "makespan=") {
		t.Errorf("fingerprint section missing:\n%s", out1)
	}
}

func TestOverridesShapeTheRun(t *testing.T) {
	code, stdout, stderr := capture(t,
		"-seed", "3", "-policy", "firstfit", "-hosts", "2", "-gpus", "6", "-jobs", "3", "-attach-ms", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "fleet-h2g6-firstfit") {
		t.Errorf("overrides not reflected in scenario ID:\n%s", stdout)
	}
	if !strings.Contains(stdout, "invariants: all held") {
		t.Errorf("invariant status missing:\n%s", stdout)
	}
	// 3 jobs requested → job rows 0..2 and no more.
	if strings.Contains(stdout, "\n   3 ") {
		t.Errorf("stream not trimmed to 3 jobs:\n%s", stdout)
	}
}

// TestPodRunDeterministic extends the CLI byte-identity criterion to the
// pod shape: a seeded multi-pod spine/leaf scenario must print identical
// telemetry, fingerprint included, on every run.
func TestPodRunDeterministic(t *testing.T) {
	code1, out1, err1 := capture(t, "-seed", "11", "-pod", "-fingerprint")
	code2, out2, err2 := capture(t, "-seed", "11", "-pod", "-fingerprint")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q %q", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatalf("two pod runs of the same seed diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "pods=") {
		t.Errorf("pod fingerprint missing hierarchy header:\n%s", out1)
	}
}

func TestPodShapeOverrides(t *testing.T) {
	code, stdout, stderr := capture(t,
		"-seed", "3", "-pods", "2", "-chassis-per-pod", "2", "-oversub", "4", "-gpus", "4", "-hosts", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "p2x2o4-") {
		t.Errorf("pod shape not reflected in scenario ID:\n%s", stdout)
	}
	if !strings.Contains(stdout, "invariants: all held") {
		t.Errorf("invariant status missing:\n%s", stdout)
	}
}

func TestStaticPolicyRuns(t *testing.T) {
	code, stdout, stderr := capture(t, "-seed", "5", "-policy", "static")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "policy static") || !strings.Contains(stdout, "0 recompositions") {
		t.Errorf("static run should report zero recompositions:\n%s", stdout)
	}
}

// TestTraceAndMetricsDeterministic extends the byte-identity criterion
// to the observability exports: two runs with -trace and -metrics write
// identical files, the trace parses as Chrome trace_event JSON, and it
// carries spans from every instrumented layer.
func TestTraceAndMetricsDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "t1.json"), filepath.Join(dir, "t2.json")
	m1, m2 := filepath.Join(dir, "m1.csv"), filepath.Join(dir, "m2.csv")
	args := []string{"-seed", "1", "-fault-seed", "3"}
	code1, out1, err1 := capture(t, append(args, "-trace", p1, "-metrics", m1)...)
	code2, out2, err2 := capture(t, append(args, "-trace", p2, "-metrics", m2)...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q %q", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatal("observed runs printed diverging reports")
	}
	if !strings.Contains(out1, "obs: ") {
		t.Errorf("observed run missing the obs summary:\n%s", out1)
	}
	tr1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("-trace files differ between identical runs")
	}
	for _, pair := range [2]string{m1, m2} {
		if _, err := os.Stat(pair); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := os.ReadFile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("-metrics files differ between identical runs")
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr1, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
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
	if !strings.HasPrefix(string(c1), "time_s,") {
		t.Errorf("-metrics CSV header malformed: %q", strings.SplitN(string(c1), "\n", 2)[0])
	}
}

// TestTracingDoesNotPerturbTheRun pins the observer-effect contract: the
// fingerprint of an observed run equals the unobserved one.
func TestTracingDoesNotPerturbTheRun(t *testing.T) {
	dir := t.TempDir()
	_, plain, _ := capture(t, "-seed", "7", "-fingerprint")
	_, traced, _ := capture(t, "-seed", "7", "-fingerprint",
		"-trace", filepath.Join(dir, "t.json"), "-metrics-interval", "50")
	cut := func(s string) string {
		i := strings.Index(s, "--- fingerprint")
		if i < 0 {
			t.Fatalf("no fingerprint section:\n%s", s)
		}
		return s[i:]
	}
	if cut(plain) != cut(traced) {
		t.Fatal("tracing changed the run's fingerprint")
	}
}

func TestFaultSeedArmsTheFailureEngine(t *testing.T) {
	args := []string{"-seed", "1", "-fault-seed", "2", "-fingerprint"}
	code1, out1, stderr := capture(t, args...)
	if code1 != 0 {
		t.Fatalf("exit %d, stderr %q", code1, stderr)
	}
	if !strings.Contains(out1, "faults:") {
		t.Fatalf("faulty run summary missing fault telemetry:\n%s", out1)
	}
	_, out2, _ := capture(t, args...)
	if out1 != out2 {
		t.Fatal("two identical faulty fleetsim runs diverged")
	}
	_, clean, _ := capture(t, "-seed", "1", "-fingerprint")
	if clean == out1 {
		t.Fatal("-fault-seed did not change the run")
	}
}

// TestChaosAndRunShareTheScenario pins the one scenario builder: for
// the same flags and -fault-seed, chaos and run mode execute the same
// fault scenario, so their fingerprints agree, even where SanitizeFleet
// clamps the overrides.
func TestChaosAndRunShareTheScenario(t *testing.T) {
	cut := func(s string) string {
		i := strings.Index(s, "--- fingerprint")
		if i < 0 {
			t.Fatalf("no fingerprint section:\n%s", s)
		}
		return s[i:]
	}
	for _, args := range [][]string{
		{"-seed", "1", "-fault-seed", "9"},
		{"-seed", "4", "-hosts", "9", "-gpus", "1", "-fault-seed", "9"},
		{"-seed", "5", "-pods", "9", "-chassis-per-pod", "7", "-oversub", "99", "-fault-seed", "4"},
		{"-seed", "1", "-policy", "static", "-hosts", "2", "-fault-seed", "9", "-retries", "1"},
	} {
		args = append(args, "-fingerprint")
		code1, plain, err1 := capture(t, args...)
		code2, chaos, err2 := capture(t, append([]string{"chaos"}, args...)...)
		if code1 != 0 || code2 != 0 {
			t.Fatalf("%v: exits %d/%d, stderr %q %q", args, code1, code2, err1, err2)
		}
		if cut(plain) != cut(chaos) {
			t.Errorf("%v: run and chaos modes ran different scenarios", args)
		}
	}
}

func TestChaosReportsFaultsAndInvariants(t *testing.T) {
	code, stdout, stderr := capture(t, "chaos", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"chaossim scenario", "fault plan:", "invariants: all held"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

func TestChaosRunTwiceByteIdentical(t *testing.T) {
	args := []string{"chaos", "-seed", "3", "-fingerprint"}
	code1, out1, stderr1 := capture(t, args...)
	code2, out2, _ := capture(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q", code1, code2, stderr1)
	}
	if out1 != out2 {
		t.Fatalf("two identical chaos runs diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "--- fingerprint") {
		t.Fatalf("missing fingerprint section:\n%s", out1)
	}
}

// TestChaosPodRunTwiceByteIdentical extends run-twice byte-identity to
// the pod shape, where the pod-scoped fault kinds (pod power, spine
// link) are in the draw.
func TestChaosPodRunTwiceByteIdentical(t *testing.T) {
	args := []string{"chaos", "-seed", "5", "-pod", "-fingerprint"}
	code1, out1, stderr1 := capture(t, args...)
	code2, out2, _ := capture(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q", code1, code2, stderr1)
	}
	if out1 != out2 {
		t.Fatalf("two identical pod chaos runs diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "pods=") {
		t.Errorf("pod fingerprint missing hierarchy header:\n%s", out1)
	}
}

func TestChaosFaultSeedOverrideChangesSchedule(t *testing.T) {
	_, base, _ := capture(t, "chaos", "-seed", "1", "-fingerprint")
	code, alt, stderr := capture(t, "chaos", "-seed", "1", "-fault-seed", "99", "-fingerprint")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if base == alt {
		t.Fatal("-fault-seed override did not change the run")
	}
}

// TestChaosSomeSeedExercisesRecovery guards against chaos mode silently
// becoming fault-free: across a handful of seeds at least one run must
// show a kill-and-recover (or fail) in the report.
func TestChaosSomeSeedExercisesRecovery(t *testing.T) {
	for _, seed := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		code, stdout, stderr := capture(t, "chaos", "-seed", seed)
		if code != 0 {
			t.Fatalf("seed %s: exit %d, stderr %q", seed, code, stderr)
		}
		if strings.Contains(stdout, "recovered:") || strings.Contains(stdout, "FAILED:") {
			return
		}
	}
	t.Fatal("no seed in 1..8 exercised the recovery path")
}

// TestChaosTraceRunTwiceByteIdentical extends the byte-identity
// criterion to chaos mode's observability exports: two runs with
// -trace/-metrics write identical valid files.
func TestChaosTraceRunTwiceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "t1.json"), filepath.Join(dir, "t2.json")
	m1, m2 := filepath.Join(dir, "m1.csv"), filepath.Join(dir, "m2.csv")
	code1, out1, err1 := capture(t, "chaos", "-seed", "2", "-trace", p1, "-metrics", m1)
	code2, out2, err2 := capture(t, "chaos", "-seed", "2", "-trace", p2, "-metrics", m2)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q %q", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatal("observed runs printed diverging reports")
	}
	if !strings.Contains(out1, "obs: ") {
		t.Errorf("observed run missing the obs summary:\n%s", out1)
	}
	tr1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("-trace files differ between identical runs")
	}
	c1, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := os.ReadFile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("-metrics files differ between identical runs")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr1, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace carries no events")
	}
}

// TestAnalyzeRunTwiceByteIdentical pins analyze mode's determinism: the
// same flags produce the same bytes, in both text and JSON modes, for
// fault-free and faulty scenarios.
func TestAnalyzeRunTwiceByteIdentical(t *testing.T) {
	for _, args := range [][]string{
		{"analyze", "-seed", "1"},
		{"analyze", "-seed", "1", "-fault-seed", "3", "-slo", "p99-wait<=24h max-failed<=100"},
		{"analyze", "-seed", "2", "-json", "-top", "3"},
	} {
		c1, o1, e1 := capture(t, args...)
		c2, o2, e2 := capture(t, args...)
		if c1 != c2 || o1 != o2 || e1 != e2 {
			t.Errorf("args %v: two runs diverge (codes %d/%d)", args, c1, c2)
		}
		if c1 != 0 {
			t.Errorf("args %v: exit %d, stderr: %s", args, c1, e1)
		}
	}
}

// TestFileModeMatchesRunMode pins the two input paths end to end: a
// trace written by one run, re-analyzed via -file, must yield the
// same JSON report as the live run (minus the run-level stats block,
// which a bare trace cannot carry).
func TestFileModeMatchesRunMode(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")

	// Produce the trace with the obs exporter via a scenario run.
	writeScenarioTrace(t, trace)

	code, fromFile, stderr := capture(t, "analyze", "-file", trace, "-json", "-top", "4")
	if code != 0 {
		t.Fatalf("file mode exit %d: %s", code, stderr)
	}
	code, live, stderr := capture(t, "analyze", "-seed", "1", "-fault-seed", "3", "-json", "-top", "4")
	if code != 0 {
		t.Fatalf("run mode exit %d: %s", code, stderr)
	}

	var fileDoc, liveDoc map[string]any
	if err := json.Unmarshal([]byte(fromFile), &fileDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(live), &liveDoc); err != nil {
		t.Fatal(err)
	}
	// Run mode additionally knows goodput/utilization.
	if _, ok := liveDoc["stats"]; !ok {
		t.Error("run mode report lacks fleet stats")
	}
	delete(liveDoc, "stats")
	fb, _ := json.Marshal(fileDoc)
	lb, _ := json.Marshal(liveDoc)
	if !bytes.Equal(fb, lb) {
		t.Errorf("file-mode analysis diverges from run mode:\nfile: %s\nlive: %s", fb, lb)
	}
}

// TestSLOVerdictExitCodes pins the CI-facing contract: a violated SLO
// exits 3 and prints FAIL; an unparsable SLO exits 2.
func TestSLOVerdictExitCodes(t *testing.T) {
	code, out, _ := capture(t, "analyze", "-seed", "1", "-slo", "p99-latency<=1ns")
	if code != 3 {
		t.Errorf("violated SLO: exit %d, want 3", code)
	}
	if !strings.Contains(out, "slo: FAIL") {
		t.Errorf("report lacks FAIL verdict:\n%s", out)
	}

	code, _, stderr := capture(t, "analyze", "-seed", "1", "-slo", "nonsense<=1")
	if code != 2 || !strings.Contains(stderr, "unknown metric") {
		t.Errorf("bad SLO: exit %d, stderr %q, want 2 + parse error", code, stderr)
	}

	// Trace-file mode: goodput clause skips, doesn't fail.
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	writeScenarioTrace(t, trace)
	code, out, stderr = capture(t, "analyze", "-file", trace, "-slo", "goodput>=1e9")
	if code != 0 {
		t.Errorf("skipped-only SLO should exit 0, got %d (%s)", code, stderr)
	}
	if !strings.Contains(out, "skip") {
		t.Errorf("report should mark the clause skipped:\n%s", out)
	}
}

// TestTextReportShape spot-checks the human rendering.
func TestTextReportShape(t *testing.T) {
	code, out, stderr := capture(t, "analyze", "-seed", "1", "-fault-seed", "3", "-top", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"trace analytics:", "time attribution (fleet blame):",
		"winddown", "histograms (exact percentiles):",
		"slowest 2 jobs:", "critical paths:", "fleet: goodput",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeOutputFileMatchesStdout pins -o: the report file holds
// exactly the bytes the same invocation prints without -o, and nothing
// reaches stdout.
func TestAnalyzeOutputFileMatchesStdout(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"analyze", "-seed", "1", "-fault-seed", "3", "-json", "-slo", "p99-wait<=60s max-failed<=1"},
		{"analyze", "-seed", "2", "-top", "3", "-slo", "p99-latency<=1ns"},
	} {
		wantCode, want, _ := capture(t, args...)
		path := filepath.Join(dir, fmt.Sprintf("report%d", i))
		code, stdout, stderr := capture(t, append(args, "-o", path)...)
		if code != wantCode || stdout != "" {
			t.Fatalf("%v -o: exit %d (want %d), stdout %q, stderr %q", args, code, wantCode, stdout, stderr)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%v: -o file differs from stdout:\n--- file\n%s\n--- stdout\n%s", args, got, want)
		}
	}
	if code, _, stderr := capture(t, "analyze", "-seed", "1", "-o", filepath.Join(dir, "missing", "r")); code != 1 || stderr == "" {
		t.Errorf("unwritable -o: exit %d, stderr %q, want 1 and an error", code, stderr)
	}
}

// writeScenarioTrace runs the seed-1/fault-seed-3 scenario and dumps
// its raw Chrome trace via -trace, for -file round trips.
func writeScenarioTrace(t *testing.T, path string) {
	t.Helper()
	code, _, stderr := capture(t, "analyze", "-seed", "1", "-fault-seed", "3", "-trace", path)
	if code != 0 {
		t.Fatalf("-trace exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
