package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotPathAnalyzer guards the functions the 0 allocs/op benchmarks pin
// (the QUIC* ACK path, the timing-wheel operations, qoe scoring): a
// function annotated //voxel:allocfree rejects the constructs that are
// known to allocate on every execution —
//
//   - any call into package fmt (Sprintf and friends format into a fresh
//     string and box their variadic arguments);
//   - closures that capture enclosing variables (the captured frame
//     escapes to the heap along with the func value);
//   - explicit conversions of non-pointer concrete values to interface
//     types (the value is boxed);
//   - append forms other than self-append `x = append(x, ...)` — the
//     pooled/amortized idiom whose backing array is preallocated and
//     recycled; any other destination can grow a fresh array per call;
//   - method values (`x.M` not called on the spot, e.g. passed as a
//     callback): each evaluation binds the receiver in a fresh closure.
//     Bind once outside the hot path and pass the stored func.
//
// The annotation is deliberately opt-in and per-function: cold paths of
// the same package (constructors, failure formatting) allocate freely.
// Warm-up allocations behind a freelist-empty check (`return &T{}`) are
// accepted — the benchmarks pin the steady state, and the freelist is
// exactly the mechanism that makes those sites cold.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//voxel:allocfree functions reject known-allocating constructs",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := docHasDirective(fd.Doc, "allocfree"); !ok {
				continue
			}
			checkAllocFree(pass, fd)
		}
	}
}

func checkAllocFree(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		if insideFuncLit(stack) {
			return // the literal was reported once at its own site
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := calleeFunc(info, n); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s allocates (formatting + variadic boxing) in //voxel:allocfree function %s", f.Name(), fd.Name.Name)
				return
			}
			checkInterfaceConversion(pass, fd, n)
			checkAppend(pass, fd, n, stack)
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !isCallee(n, stack) {
				pass.Reportf(n.Pos(), "method value %s.%s binds its receiver in a fresh closure in //voxel:allocfree function %s: bind it once outside the hot path", exprKey(n.X), n.Sel.Name, fd.Name.Name)
			}
		case *ast.FuncLit:
			if captured := capturedVars(pass, n); len(captured) > 0 {
				pass.Reportf(n.Pos(), "closure captures %s in //voxel:allocfree function %s: the captured frame escapes to the heap", captured[0], fd.Name.Name)
			}
		}
	})
}

// isCallee reports whether sel is the function operand of a call (modulo
// parentheses): x.M(...) invokes the method without materializing a value.
func isCallee(sel *ast.SelectorExpr, stack []ast.Node) bool {
	parent, child := parentOf(sel, stack)
	call, ok := parent.(*ast.CallExpr)
	return ok && call.Fun == child
}

// parentOf returns n's nearest ancestor that is not a parenthesis, and that
// ancestor's child on the path down to n (n itself, or its outermost paren).
func parentOf(n ast.Node, stack []ast.Node) (parent, child ast.Node) {
	child = n
	for i := len(stack) - 1; i >= 0; i-- {
		if p, ok := stack[i].(*ast.ParenExpr); ok {
			child = p
			continue
		}
		return stack[i], child
	}
	return nil, child
}

// insideFuncLit reports whether any ancestor is a func literal — nodes
// under one belong to the closure, whose body is not re-checked (the
// capture itself is the allocation being flagged).
func insideFuncLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// capturedVars returns the names of enclosing-function variables the
// literal captures, sorted for deterministic diagnostics. Package-level
// objects, fields, and the literal's own locals/params don't count.
func capturedVars(pass *Pass, lit *ast.FuncLit) []string {
	info := pass.Pkg.Info
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pass.Pkg.Types.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe: no frame to capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own param or local
		}
		seen[v.Name()] = true
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkInterfaceConversion flags explicit conversions I(x) where I is an
// interface and x a non-pointer concrete value: the conversion boxes x.
func checkInterfaceConversion(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := tv.Type
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch u := src.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return // interface-to-interface and pointer boxing don't copy the value
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return
		}
	}
	pass.Reportf(call.Pos(), "conversion of non-pointer %s to interface %s boxes the value in //voxel:allocfree function %s", src, dst, fd.Name.Name)
}

// checkAppend accepts only the self-append form x = append(x, ...) (with
// x possibly resliced: append(x[:0], ...)); any other destination may
// grow a fresh backing array on every call.
func checkAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	if !isBuiltin(pass.Pkg.Info, call, "append") || len(call.Args) == 0 {
		return
	}
	if assign := enclosingAssign(call, stack); assign != nil &&
		assign.Tok == token.ASSIGN && len(assign.Lhs) == 1 && len(assign.Rhs) == 1 &&
		exprKey(assign.Lhs[0]) == exprKey(sliceBase(call.Args[0])) {
		return
	}
	pass.Reportf(call.Pos(), "append without a recycled destination in //voxel:allocfree function %s: write x = append(x, ...) over a preallocated x", fd.Name.Name)
}

// enclosingAssign returns the assignment whose sole right-hand side is
// this call (modulo parentheses), or nil.
func enclosingAssign(call *ast.CallExpr, stack []ast.Node) *ast.AssignStmt {
	parent, child := parentOf(call, stack)
	if assign, ok := parent.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 && assign.Rhs[0] == child {
		return assign
	}
	return nil
}
