package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule set. Run inspects a loaded package through
// the Pass and reports diagnostics; Packages optionally restricts which
// import paths the driver applies the rule to (nil = every package).
// Test harnesses bypass the filter and run the analyzer directly.
type Analyzer struct {
	Name     string
	Doc      string
	Packages []string
	Run      func(*Pass)
}

// AppliesTo reports whether the driver should run this analyzer on the
// package with the given import path. External test units carry the
// primary package's path plus a "_test" suffix and inherit its gating.
func (a *Analyzer) AppliesTo(path string) bool {
	if a.Packages == nil {
		return true
	}
	path = strings.TrimSuffix(path, "_test")
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Pkg   *Package
	diags []Diagnostic

	analyzer *Analyzer
	detOK    map[string]map[int]bool // filename → lines carrying //voxel:det-ok
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a //voxel:det-ok directive covers pos: the
// directive suppresses diagnostics on its own line and on the line
// directly below it (comment-above style).
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	lines := p.detOK[position.Filename]
	return lines[position.Line] || lines[position.Line-1]
}

// run executes one analyzer over the package and returns its findings in
// position order.
func (a *Analyzer) run(pkg *Package) []Diagnostic {
	pass := &Pass{Pkg: pkg, analyzer: a, detOK: pkg.detOKLines()}
	a.Run(pass)
	sort.Slice(pass.diags, func(i, j int) bool {
		di, dj := pass.diags[i].Pos, pass.diags[j].Pos
		if di.Filename != dj.Filename {
			return di.Filename < dj.Filename
		}
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		return di.Column < dj.Column
	})
	return pass.diags
}

// RunSuite applies every analyzer that gates the package and merges the
// findings.
func RunSuite(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo(pkg.Path) {
			out = append(out, a.run(pkg)...)
		}
	}
	return out
}

// --- directives ---

// directive extracts the payload of a //voxel:<name> comment line, or
// ok=false when the line is not that directive.
func directive(line, name string) (payload string, ok bool) {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "//"))
	if line == "voxel:"+name {
		return "", true
	}
	if rest, found := strings.CutPrefix(line, "voxel:"+name+" "); found {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// docHasDirective reports whether any line of a doc comment group is the
// given //voxel: directive, returning its payload.
func docHasDirective(doc *ast.CommentGroup, name string) (payload string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if p, found := directive(c.Text, name); found {
			return p, true
		}
	}
	return "", false
}

// detOKLines maps filename → set of lines carrying a det-ok directive.
// A bare directive with no reason is deliberately ignored — the policy
// (DESIGN.md §11) makes the justification part of the waiver.
func (pkg *Package) detOKLines() map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := directive(c.Text, "det-ok")
				if !ok || reason == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// --- small AST/type helpers shared by the analyzers ---

// walkStack visits every node under root, handing the visitor the path of
// ancestors (outermost first, not including n itself).
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves a call to the package-level function or method it
// invokes, or nil for builtins, conversions, and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// stdFunc reports whether the call resolves to the package-level function
// pkgPath.name (methods never match: their receiver is non-nil).
func stdFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// exprKey renders an expression to a comparable string: identical
// renderings mean the same l-value for the simple expressions that appear
// as append destinations (idents, selectors, index and star expressions).
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T@%d>", e, e.Pos())
	}
}

// sliceBase strips slicing from an append argument: append(x[:0], ...)
// and append(x[:n], ...) reuse x's backing array, so they count as
// appending to x itself.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = t.X
		default:
			return ast.Unparen(e)
		}
	}
}

// namedPtrElem returns the named type T when typ is *T (unaliased), else
// nil.
func namedPtrElem(typ types.Type) *types.Named {
	ptr, ok := typ.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, _ := ptr.Elem().(*types.Named)
	return named
}

// typeKey renders a named type as pkgpath.Name.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
