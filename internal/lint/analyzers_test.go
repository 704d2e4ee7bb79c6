package lint

import (
	"strings"
	"testing"
)

func TestNoWallClockGolden(t *testing.T) {
	runTestdata(t, NoWallClock, "composable/internal/scengen/wallclock")
}

func TestMapOrderGolden(t *testing.T) {
	runTestdata(t, MapOrder, "composable/internal/obs/render")
}

func TestHotAllocGolden(t *testing.T) {
	runTestdata(t, HotAlloc, "hotpath")
}

// TestHotAllocObsGuardGolden pins the nil-checked collector idiom the
// observability layer relies on: guarded span emits inside //perf:hot
// functions are method calls and integer conversions only, so hotalloc
// has nothing to say (the golden package carries zero want comments).
func TestHotAllocObsGuardGolden(t *testing.T) {
	if diags := runTestdata(t, HotAlloc, "obsguard"); len(diags) != 0 {
		t.Errorf("hotalloc flagged the guarded-collector idiom: %v", diags)
	}
}

func TestGoroutineInProcGolden(t *testing.T) {
	runTestdata(t, GoroutineInProc, "procspawn")
}

// TestDomainScoping pins the scoping rules: nowallclock and maporder only
// police the sim-domain package list, while hotalloc and goroutine apply
// everywhere (hotpath and procspawn live outside composable/...).
func TestDomainScoping(t *testing.T) {
	for _, path := range []string{"composable/internal/scengen/wallclock", "composable/cmd/composer/sub", "hotpath"} {
		want := strings.HasPrefix(path, "composable/")
		if got := inSimDomain(path); got != want {
			t.Errorf("inSimDomain(%q) = %v, want %v", path, got, want)
		}
	}
	l := newTestLoader(t)
	// hotpath is full of wall-clock-free allocator bait; nowallclock and
	// maporder must stay silent on a non-domain package.
	other, err := l.load("hotpath")
	if err != nil {
		t.Fatal(err)
	}
	if diags := runOn(t, other, NoWallClock, MapOrder); len(diags) != 0 {
		t.Errorf("domain-scoped analyzers fired outside the sim domain: %v", diags)
	}
}

// TestDeadAPIGolden runs the whole-program pass over the deadapi golden
// package and its test-only helper package, with their caller package
// loaded by a second loader, as the benchmark module is loaded: the
// caller's references reach the package through objects of their own.
// The helper has no want comments: as test code it is not judged.
func TestDeadAPIGolden(t *testing.T) {
	l := newTestLoader(t)
	api, err := l.load("composable/internal/deadapi")
	if err != nil {
		t.Fatal(err)
	}
	helper, err := l.load("composable/internal/deadapi/testhelper")
	if err != nil {
		t.Fatal(err)
	}
	user, err := newTestLoader(t).load("composable/cmd/deadapiuser")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunProgram([]*Package{api, helper}, []*Package{user})
	if err != nil {
		t.Fatal(err)
	}
	// The reason-less allow is itself a finding. Its line cannot carry a
	// want comment (see TestLintDirectiveGrammar), so it is checked here.
	var rest []Diagnostic
	directives := 0
	for _, d := range diags {
		if d.Analyzer == "lintdirective" {
			directives++
			if !strings.Contains(d.Message, "deadapi needs a written reason") {
				t.Errorf("unexpected directive finding: %s", d)
			}
			continue
		}
		rest = append(rest, d)
	}
	if directives != 1 {
		t.Errorf("%d lintdirective findings, want 1 for the reason-less allow", directives)
	}
	checkWants(t, api, rest)
}

// runOn applies analyzers to one already-loaded package.
func runOn(t *testing.T, pkg *Package, as ...*Analyzer) []Diagnostic {
	t.Helper()
	diags, err := RunAnalyzers([]*Package{pkg}, as...)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestLintDirectiveGrammar pins the three failure modes of the allow
// grammar. The expectations live here rather than in want comments: a want
// comment appended to a directive line would become part of the directive's
// own text and change which error fires.
func TestLintDirectiveGrammar(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.load("composable/internal/scengen/badallow")
	if err != nil {
		t.Fatal(err)
	}
	diags := runOn(t, pkg, NoWallClock)
	wantSubstrings := []string{
		"needs a written reason",
		"unknown analyzer notananalyzer",
		"malformed lint directive",
	}
	var directives []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "lintdirective" {
			directives = append(directives, d)
		}
	}
	if len(directives) != len(wantSubstrings) {
		t.Fatalf("%d lintdirective diagnostics, want %d: %v", len(directives), len(wantSubstrings), directives)
	}
	// Diagnostics come back position-sorted, matching source order.
	for i, want := range wantSubstrings {
		if !strings.Contains(directives[i].Message, want) {
			t.Errorf("directive diagnostic %d = %q, want substring %q", i, directives[i].Message, want)
		}
	}
	// The empty-reason directive indexes nothing, so the time.Now it sits
	// above must still be flagged.
	found := false
	for _, d := range diags {
		if d.Analyzer == "nowallclock" {
			found = true
		}
	}
	if !found {
		t.Error("a reason-less allow suppressed the diagnostic it annotated")
	}
}
