package lint

import "testing"

// TestRepoIsLintClean is the acceptance gate: the full simlint suite over
// the whole program must come back empty. Every wall-clock read, rendered
// map range, hot-path allocator, raw goroutine and exported item nothing
// ships is either fixed or carries a //lint:allow with a written reason —
// and this test is what keeps it that way.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, callers, err := LoadProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 || len(callers) == 0 {
		t.Fatalf("loaded %d packages and %d callers; the module pattern is broken", len(pkgs), len(callers))
	}
	diags, err := RunProgram(pkgs, callers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
