package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding, positioned.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [determinism] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Pass carries one package through the determinism rule.
type Pass struct {
	Pkg   *Package
	diags []Diagnostic
	detOK map[string]map[int]bool // filename → lines carrying //voxel:det-ok
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: p.Pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a //voxel:det-ok directive covers pos: the
// directive suppresses diagnostics on its own line and on the line
// directly below it (comment-above style).
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	lines := p.detOK[position.Filename]
	return lines[position.Line] || lines[position.Line-1]
}

// detOKLines maps filename → set of lines carrying a det-ok directive.
// A bare directive with no reason is deliberately ignored — the policy
// (DESIGN.md §11) makes the justification part of the waiver.
func (pkg *Package) detOKLines() map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				reason, ok := strings.CutPrefix(text, "voxel:det-ok ")
				if !ok || strings.TrimSpace(reason) == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

// --- small AST/type helpers ---

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
		s, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return ast.Unparen(e)
		}
		e = s.X
	}
}
