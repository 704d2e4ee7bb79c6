package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a type-checked package, the stdlib-only
// analog of golang.org/x/tools/go/analysis.Analyzer (which the offline
// build cannot depend on).
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run reports the analyzer's findings on one package via
	// Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through one
// analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allows allowIndex
	diags  *[]Diagnostic
}

// Diagnostic is one finding, position-resolved for printing and
// suppression matching.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a //lint:allow comment for this
// analyzer covers the line (same line or the line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.covers(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers skip
// those: tests may measure wall time and iterate maps they sort afterward.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestPos(p.Fset, pos)
}

// Analyzers returns the per-package simlint suite in stable order. The
// whole-program deadapi check is not an Analyzer; RunProgram adds it.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoWallClock, MapOrder, HotAlloc, GoroutineInProc}
}

// AnalyzerByName finds a suite analyzer (nil if unknown); it backs the
// //lint:allow grammar check.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies the analyzers to every package and returns the
// combined findings sorted by position. Diagnostics about malformed
// annotations (an allow with no reason, an unknown analyzer name) are
// included under the pseudo-analyzer "lintdirective": a suppression that
// carries no written reason must itself fail the gate.
func RunAnalyzers(pkgs []*Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := indexAllows(pkg.Fset, pkg.Files)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				allows:    allows,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunProgram is the whole-program pass: the per-package suite over pkgs,
// then the deadapi check over pkgs with callers' references also counted.
// pkgs and callers come from LoadProgram.
func RunProgram(pkgs, callers []*Package) ([]Diagnostic, error) {
	diags, err := RunAnalyzers(pkgs, Analyzers()...)
	if err != nil {
		return diags, err
	}
	diags = append(diags, findDeadAPI(pkgs, callers)...)
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by position, then analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
