package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// allowRe matches the suppression directive: //lint:allow name(reason).
// The reason is captured so an empty one can be rejected.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\((.*)\)\s*$`)

// allowKey locates one suppression: a file line and the analyzer it
// silences.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowIndex is the per-package suppression table. A diagnostic at line L
// is covered if an allow for its analyzer sits on line L (end-of-line
// comment) or line L-1 (comment directly above the flagged statement).
type allowIndex map[allowKey]bool

func (ai allowIndex) covers(analyzer string, pos token.Position) bool {
	if ai == nil {
		return false
	}
	return ai[allowKey{pos.Filename, pos.Line, analyzer}] ||
		ai[allowKey{pos.Filename, pos.Line - 1, analyzer}]
}

// indexAllows scans every comment for //lint:allow directives. Malformed
// directives — an unknown analyzer name, or a blank reason — come back as
// diagnostics: the acceptance bar is that every suppression carries a
// written reason, and the directive parser is where that is enforced.
func indexAllows(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{Pos: fset.Position(pos), Analyzer: "lintdirective", Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					report(c.Pos(), "malformed lint directive; want //lint:allow <analyzer>(<reason>)")
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				if name != deadapiName && AnalyzerByName(name) == nil {
					report(c.Pos(), "//lint:allow names unknown analyzer "+name)
					continue
				}
				if reason == "" {
					report(c.Pos(), "//lint:allow "+name+" needs a written reason")
					continue
				}
				pos := fset.Position(c.Pos())
				idx[allowKey{pos.Filename, pos.Line, name}] = true
			}
		}
	}
	return idx, bad
}
