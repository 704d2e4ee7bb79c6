package lint

// This file is the offline analog of golang.org/x/tools/go/analysis/
// analysistest: golden packages live under testdata/src/<importpath>, and
// `// want "regexp"` comments pin the diagnostics each line must produce.
// A test fails on any unexpected diagnostic and on any unmatched want.
//
// Golden packages type-check from source recursively (so a fake
// composable/internal/sim can stand in for the real engine), while stdlib
// imports resolve through the toolchain's export data exactly like the
// production loader.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stdlibRoots are the external imports golden packages may use; -deps pulls
// their transitive export data along. Extend the list when a new golden
// file needs another stdlib package.
var stdlibRoots = []string{
	"bytes", "fmt", "io", "math/rand", "math/rand/v2",
	"sort", "strconv", "strings", "time",
}

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdlibExports maps stdlib import paths to export-data files, compiled on
// first use via `go list -export`.
func stdlibExports(t *testing.T) map[string]string {
	t.Helper()
	stdExportsOnce.Do(func() {
		args := append([]string{"list", "-e", "-export", "-deps", "-json"}, stdlibRoots...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdExportsErr = fmt.Errorf("go list std roots: %v\n%s", err, stderr.String())
			return
		}
		stdExports = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdExportsErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdExportsErr != nil {
		t.Fatal(stdExportsErr)
	}
	return stdExports
}

// testLoader type-checks golden packages: testdata imports load from source
// through itself (recursively), everything else goes to the gc importer.
type testLoader struct {
	srcRoot string
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
}

func newTestLoader(t *testing.T) *testLoader {
	t.Helper()
	fset := token.NewFileSet()
	exports := stdlibExports(t)
	std := newGCImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	}, nil)
	return &testLoader{
		srcRoot: filepath.Join("testdata", "src"),
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
	}
}

func (l *testLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *testLoader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if fi, err := os.Stat(filepath.Join(l.srcRoot, path)); err == nil && fi.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, "", 0)
}

// load parses and type-checks one golden package from source.
func (l *testLoader) load(importPath string) (*Package, error) {
	dir := filepath.Join(l.srcRoot, importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	pkg, err := checkPackage(l.fset, importPath, dir, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// want is one expectation: a diagnostic on this line whose message matches
// the regexp.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantStringRe pulls the quoted or backquoted expectation patterns out of a
// `// want` comment.
var wantStringRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts `// want "re"` (or backquoted) expectations from the
// package's comments.
func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				raw := wantStringRe.FindAllString(text[len("want "):], -1)
				if len(raw) == 0 {
					t.Fatalf("%s:%d: want comment with no pattern", pos.Filename, pos.Line)
				}
				for _, q := range raw {
					pat := strings.Trim(q, "`")
					if strings.HasPrefix(q, `"`) {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runTestdata loads one golden package, runs the analyzer, and checks the
// diagnostics one-to-one against the package's want comments.
func runTestdata(t *testing.T, a *Analyzer, importPath string) []Diagnostic {
	t.Helper()
	l := newTestLoader(t)
	pkg, err := l.load(importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, a)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkg, diags)
	return diags
}

// checkWants matches diags one-to-one against pkg's want comments.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}
