package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis — the
// offline stand-in for golang.org/x/tools/go/packages.Package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath  string
	Dir         string
	Standard    bool
	DepOnly     bool
	Export      string
	ForTest     string
	GoFiles     []string
	TestGoFiles []string
	Error       *struct{ Err string }
}

// Load type-checks the packages matching patterns (resolved from the
// module root, so callers work regardless of their working directory) and
// returns them ready for RunAnalyzers. Each package is checked together
// with its in-package _test.go files, as vet-tool mode checks the test
// variant, so a test that reaches package code (a golden test on the
// rendered-output path, say) counts here too.
//
// The heavy lifting is delegated to the toolchain: `go list -export`
// compiles dependencies into the build cache and reports their export
// files, and the stdlib gc importer reads those files back through a
// lookup function. That keeps the loader working offline with zero
// third-party dependencies.
func Load(patterns ...string) ([]*Package, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return loadIn(root, patterns...)
}

// callerModule is the repo's other module, the end-to-end benchmark. It
// imports the main module's internal packages, so what it references is
// live API.
const callerModule = "bench"

// LoadProgram loads the whole program for RunProgram: every package of
// the main module, and as callers every package of the benchmark module.
func LoadProgram() (pkgs, callers []*Package, err error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}
	if pkgs, err = loadIn(root, "./..."); err != nil {
		return nil, nil, err
	}
	if callers, err = loadIn(filepath.Join(root, callerModule), "./..."); err != nil {
		return nil, nil, err
	}
	return pkgs, callers, nil
}

// loadIn runs Load's work with the go command in dir.
func loadIn(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// -test also lists each package's test variants and test main;
		// the plain package plus its TestGoFiles is the in-package variant.
		if !p.DepOnly && !p.Standard && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := newGCImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	}, nil)

	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files := make([]string, 0, len(t.GoFiles)+len(t.TestGoFiles))
		for _, f := range append(t.GoFiles, t.TestGoFiles...) {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := checkPackage(fset, t.ImportPath, t.Dir, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleRoot finds the enclosing module's directory via `go env GOMOD`.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("lint: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return ".", nil
	}
	return filepath.Dir(gomod), nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, importPath, dir string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// gcImporter resolves imports from compiled export data: the source
// import path goes through importMap (vet's vendor/test remapping), then
// the lookup maps the canonical path to an export file the stdlib gc
// importer can read.
type gcImporter struct {
	base      types.ImporterFrom
	importMap map[string]string
}

// newGCImporter builds the shared importer. find maps a canonical import
// path to its export-data file; importMap may be nil.
func newGCImporter(fset *token.FileSet, find func(string) (string, bool), importMap map[string]string) *gcImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := find(path)
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	base := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return &gcImporter{base: base, importMap: importMap}
}

func (g *gcImporter) Import(path string) (*types.Package, error) {
	return g.ImportFrom(path, "", 0)
}

func (g *gcImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := g.importMap[path]; ok {
		path = mapped
	}
	return g.base.ImportFrom(path, dir, 0)
}
