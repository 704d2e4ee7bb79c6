package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// deadapiName is the whole-program dead-API check's name in diagnostics
// and in //lint:allow deadapi(reason). The check is not an Analyzer: it
// needs the whole program at once, so only RunProgram runs it, never the
// per-package RunAnalyzers or vet-tool mode.
const deadapiName = "deadapi"

// findDeadAPI flags the exported functions, methods and types under an
// internal/ path in pkgs that no shipped non-test code references. Callers
// come from other modules, so their objects are not the ones pkgs declare:
// references are matched by package path, receiver and name (apiKey).
// Only direct references count; an item used only by another dead item
// shows up once that one is deleted.
//
// Shipped code is the non-test files of the packages a main package of
// pkgs or callers reaches through non-test imports. A package nothing
// shipped imports (a helper only tests import, say) is test code: its
// references do not count and its own API is not judged.
//
// A method that implements a method of any interface type in the program
// (the standard library's included) is live: it may be called through the
// interface.
func findDeadAPI(pkgs, callers []*Package) []Diagnostic {
	shipped := shippedPackages(append(pkgs[:len(pkgs):len(pkgs)], callers...))
	used := make(map[string]bool)
	ifaces := make(map[string][]*types.Interface) // method name -> interfaces that declare it
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	seenPkg := make(map[*types.Package]bool)
	var addPkg func(*types.Package)
	addPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addPkg(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, group := range [][]*Package{pkgs, callers} {
		for _, p := range group {
			addPkg(p.Types)
			for _, tv := range p.TypesInfo.Types {
				if tv.IsType() {
					addIface(tv.Type)
				}
			}
			if !shipped[p.ImportPath] {
				continue
			}
			for id, obj := range p.TypesInfo.Uses {
				if !isTestPos(p.Fset, id.Pos()) {
					used[apiKey(obj)] = true
				}
			}
		}
	}
	implementsAny := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv) // *T's method set holds T's too
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) {
				return true
			}
		}
		return false
	}

	var diags []Diagnostic
	for _, p := range pkgs {
		if !shipped[p.ImportPath] || !strings.Contains("/"+p.ImportPath+"/", "/internal/") {
			continue
		}
		allows, _ := indexAllows(p.Fset, p.Files) // RunAnalyzers reports the malformed ones
		report := func(id *ast.Ident, what string) {
			pos := p.Fset.Position(id.Pos())
			if !allows.covers(deadapiName, pos) {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: deadapiName,
					Message: what + " has no non-test reference; delete it, or name the test that needs it in //lint:allow deadapi(reason)"})
			}
		}
		for _, f := range p.Files {
			if isTestPos(p.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok || !d.Name.IsExported() || used[apiKey(fn)] {
						continue
					}
					if d.Recv == nil {
						report(d.Name, "func "+fn.Name())
					} else if !implementsAny(fn) {
						report(d.Name, "method "+strings.TrimPrefix(apiKey(fn), p.ImportPath+"."))
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if ts.Name.IsExported() && !used[apiKey(p.TypesInfo.Defs[ts.Name])] {
							report(ts.Name, "type "+ts.Name.Name)
						}
					}
				}
			}
		}
	}
	return diags
}

// shippedPackages returns the import paths that a main package among
// pkgs reaches through the imports of non-test files, mains included.
func shippedPackages(pkgs []*Package) map[string]bool {
	imports := make(map[string][]string)
	var work []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			if isTestPos(p.Fset, f.Pos()) {
				continue
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				imports[p.ImportPath] = append(imports[p.ImportPath], path)
			}
		}
		if p.Types.Name() == "main" {
			work = append(work, p.ImportPath)
		}
	}
	shipped := make(map[string]bool)
	for len(work) > 0 {
		path := work[len(work)-1]
		work = work[:len(work)-1]
		if shipped[path] {
			continue
		}
		shipped[path] = true
		work = append(work, imports[path]...)
	}
	return shipped
}

// apiKey names a function, method or type by package path, receiver and
// name, so that the same declaration seen through two loads compares
// equal. Other objects key to "".
func apiKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				prefix += n.Obj().Name() + "."
			}
		}
		return prefix + o.Name()
	case *types.TypeName:
		return prefix + o.Name()
	}
	return ""
}

// isTestPos reports whether pos lies in a _test.go file.
func isTestPos(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
