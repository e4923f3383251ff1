package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the replay-determinism contract in
// sim-reachable packages: a trial's outcome must be a pure function of
// (config, seed), so the code between seed and aggregate may not read
// wall clocks, the process environment, or the global math/rand stream,
// and may not iterate a map in any order-dependent way.
//
// Wall-clock/env/global-rand findings apply to non-test files only —
// test harnesses legitimately re-exec processes and bound wall time. The
// map-iteration rule applies to test files too: a map-ordered test case
// sequence breaks replayable failure reports just as surely as a
// map-ordered event schedule.
//
// A map range is accepted only in provably order-independent shapes:
// stores keyed by the raw range variable, delete calls, commutative
// integer accumulation, loop-local work, and the canonical sorted-key
// idiom (collect keys into a slice that the same function subsequently
// sorts). Everything else is a diagnostic; //voxel:det-ok <reason>
// waives a site after human review.
var DeterminismAnalyzer = &Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall clocks, env reads, global rand, and order-dependent map iteration in sim-reachable packages",
	Packages: DeterministicPackages,
	Run:      runDeterminism,
}

// forbiddenWallCalls maps package path → function names whose result
// depends on when or where the process runs.
var forbiddenWallCalls = map[string]map[string]string{
	"time": {
		"Now": "wall clock", "Since": "wall clock", "Until": "wall clock",
		"Tick": "wall timer", "After": "wall timer", "Sleep": "wall sleep",
		"NewTimer": "wall timer", "NewTicker": "wall timer", "AfterFunc": "wall timer",
	},
	"os": {
		"Getenv": "environment read", "LookupEnv": "environment read", "Environ": "environment read",
	},
}

// randConstructors are the math/rand package-level functions that build
// an explicitly seeded source instead of touching the global stream.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(pass, fd.Body)
			}
		}
		if pass.Pkg.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkWallCall(pass, call)
			}
			return true
		})
	}
}

func checkWallCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) are fine
	}
	pkgPath, name := f.Pkg().Path(), f.Name()
	if kind, ok := forbiddenWallCalls[pkgPath][name]; ok && !pass.Suppressed(call.Pos()) {
		pass.Reportf(call.Pos(), "%s.%s (%s) in a sim-reachable package: trial outcomes must be a pure function of (config, seed)", pkgPath, name, kind)
	}
	if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name] && !pass.Suppressed(call.Pos()) {
		pass.Reportf(call.Pos(), "global %s.%s in a sim-reachable package: use an explicitly seeded rand.New(rand.NewSource(seed))", pkgPath, name)
	}
}

// --- map-range order independence ---

// checkMapRanges finds every range-over-map inside the body of one
// function declaration and classifies each one. The enclosing body is
// kept so the sorted-key idiom can look for the sort call that follows a
// collect loop.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Pkg.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Suppressed(rng.Pos()) {
			return true
		}
		classifyMapRange(pass, rng, body)
		return true
	})
}

// rangeCheck accumulates what one map-range body does. locals tracks
// variables declared inside the loop (writes to them cannot leak
// iteration order); collects tracks self-appended slices that must be
// sorted after the loop for the result to be canonical.
type rangeCheck struct {
	pass      *Pass
	rng       *ast.RangeStmt
	enclosing *ast.BlockStmt
	keyObj    types.Object
	valObj    types.Object
	locals    map[types.Object]bool
	collects  []string // exprKeys of append destinations needing a sort
	reported  bool
}

func classifyMapRange(pass *Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) {
	c := &rangeCheck{pass: pass, rng: rng, enclosing: enclosing, locals: map[types.Object]bool{}}
	if rng.Tok == token.DEFINE {
		c.keyObj = defObj(pass, rng.Key)
		c.valObj = defObj(pass, rng.Value)
	} else if rng.Key != nil || rng.Value != nil {
		// Assigning the key/value to pre-existing variables leaks the
		// iteration order into outer state by construction.
		c.flag(rng.Pos(), "assigns the map iteration variable to an outer variable")
		return
	}
	for _, s := range rng.Body.List {
		c.stmt(s)
	}
	for _, dest := range c.collects {
		if !sortedAfter(pass, enclosing, rng, dest) {
			c.flag(rng.Pos(), "collects entries from a map range into %q but never sorts it; the slice order is the map iteration order", dest)
		}
	}
}

func defObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Pkg.Info.Defs[id]
}

func (c *rangeCheck) flag(pos token.Pos, format string, args ...any) {
	if c.reported {
		return // one diagnostic per range statement is enough to act on
	}
	c.reported = true
	c.pass.Reportf(pos, "order-dependent map iteration: "+format+" (iterate sorted keys, or waive with //voxel:det-ok <reason>)", args...)
}

// stmt checks one statement of the loop body.
func (c *rangeCheck) stmt(s ast.Stmt) {
	if c.reported {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			c.stmt(inner)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.expr(s.Cond)
		c.stmt(s.Body)
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.stmt(s.Body)
	case *ast.RangeStmt:
		if s.Tok == token.DEFINE {
			if o := defObj(c.pass, s.Key); o != nil {
				c.locals[o] = true
			}
			if o := defObj(c.pass, s.Value); o != nil {
				c.locals[o] = true
			}
		}
		c.expr(s.X)
		c.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Tag != nil {
			c.expr(s.Tag)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				c.expr(e)
			}
			for _, inner := range clause.Body {
				c.stmt(inner)
			}
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt:
		c.flag(s.Pos(), "statement of kind %T inside the loop body", s)
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		c.accumulate(s.X, token.ADD_ASSIGN, nil, s.Pos())
	case *ast.ExprStmt:
		c.call(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			c.flag(s.Pos(), "declaration inside the loop body")
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if o := c.pass.Pkg.Info.Defs[name]; o != nil {
					c.locals[o] = true
				}
			}
			for _, v := range vs.Values {
				c.expr(v)
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
		// continue/break/goto-free labels carry no state
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e)
			if c.references(e, c.keyObj) || c.references(e, c.valObj) {
				c.flag(s.Pos(), "returns a value derived from the iteration variable; which entry wins depends on map order")
			}
		}
	default:
		c.flag(s.Pos(), "statement of kind %T inside the loop body", s)
	}
}

// assign checks one assignment statement inside the loop.
func (c *rangeCheck) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.DEFINE:
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if o := c.pass.Pkg.Info.Defs[id]; o != nil {
					c.locals[o] = true
				}
			}
		}
		for _, r := range s.Rhs {
			c.expr(r)
		}
	case token.ASSIGN:
		// Self-append collect: dest = append(dest, ...) feeds the
		// sorted-key idiom, checked after the loop.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(c.pass.Pkg.Info, call, "append") && len(call.Args) > 0 {
				destKey := exprKey(s.Lhs[0])
				if destKey == exprKey(sliceBase(call.Args[0])) {
					for _, a := range call.Args[1:] {
						c.expr(a)
					}
					if c.isLocalLValue(s.Lhs[0]) {
						return
					}
					c.collects = append(c.collects, destKey)
					return
				}
			}
		}
		for _, r := range s.Rhs {
			c.expr(r)
		}
		for _, l := range s.Lhs {
			c.lvalue(l)
		}
	default: // compound assignment
		c.expr(s.Rhs[0])
		c.accumulate(s.Lhs[0], s.Tok, s.Rhs[0], s.Pos())
	}
}

// lvalue checks a plain-assignment destination.
func (c *rangeCheck) lvalue(l ast.Expr) {
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" || c.isLocalLValue(l) {
			return
		}
		c.flag(l.Pos(), "assigns to outer variable %q", l.Name)
	case *ast.IndexExpr:
		// A store keyed by the raw range variable lands each entry in a
		// slot owned by that entry — order cannot matter. A computed key
		// can collide across entries ("last writer wins"), so it can.
		if c.isLocalLValue(l) {
			return
		}
		if t := c.pass.Pkg.Info.TypeOf(l.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if id, ok := ast.Unparen(l.Index).(*ast.Ident); ok {
					if o := c.pass.Pkg.Info.Uses[id]; o != nil && (o == c.keyObj || o == c.valObj || c.locals[o]) {
						c.expr(l.X)
						return
					}
				}
				c.flag(l.Pos(), "stores under a computed map key; colliding keys make the surviving value order-dependent")
				return
			}
		}
		c.flag(l.Pos(), "writes through an outer index expression")
	default:
		if c.isLocalLValue(l) {
			return
		}
		c.flag(l.Pos(), "writes to outer state through a %T", l)
	}
}

// isLocalLValue reports whether the destination is rooted at a variable
// declared inside the loop body.
func (c *rangeCheck) isLocalLValue(e ast.Expr) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			o := c.pass.Pkg.Info.Uses[t]
			if o == nil {
				o = c.pass.Pkg.Info.Defs[t]
			}
			return o != nil && (c.locals[o] || o == c.keyObj || o == c.valObj)
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return false
		}
	}
}

// accumulate checks a compound assignment or ++/--: commutative integer
// accumulation into outer state is order-independent; everything else is
// not.
func (c *rangeCheck) accumulate(dest ast.Expr, tok token.Token, rhs ast.Expr, pos token.Pos) {
	if rhs != nil {
		c.expr(rhs)
	}
	if c.isLocalLValue(dest) {
		return
	}
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		c.flag(pos, "non-commutative compound assignment to outer state")
		return
	}
	t := c.pass.Pkg.Info.TypeOf(dest)
	if t == nil {
		c.flag(pos, "compound assignment to outer state of unknown type")
		return
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return // integer accumulation commutes exactly
	}
	c.flag(pos, "accumulates into outer non-integer state; floating-point reduction depends on summation order")
}

// call checks an expression-statement call: delete is sanctioned, any
// other call may have side effects that observe the iteration order.
func (c *rangeCheck) call(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		c.expr(e)
		return
	}
	if isBuiltin(c.pass.Pkg.Info, call, "delete") {
		for _, a := range call.Args {
			c.expr(a)
		}
		return
	}
	c.flag(call.Pos(), "calls %s, whose side effects would observe the iteration order", exprKey(call.Fun))
}

// expr rejects calls (other than pure builtins and conversions) anywhere
// inside an expression evaluated by the loop.
func (c *rangeCheck) expr(e ast.Expr) {
	if e == nil || c.reported {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if c.reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(c.pass.Pkg.Info, n, "len") || isBuiltin(c.pass.Pkg.Info, n, "cap") ||
				isBuiltin(c.pass.Pkg.Info, n, "min") || isBuiltin(c.pass.Pkg.Info, n, "max") {
				return true
			}
			if tv, ok := c.pass.Pkg.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			c.flag(n.Pos(), "calls %s inside the loop; a side-effecting call would observe the iteration order", exprKey(n.Fun))
			return false
		case *ast.FuncLit:
			c.flag(n.Pos(), "declares a closure inside the loop body")
			return false
		}
		return true
	})
}

// references reports whether the expression mentions the given object.
func (c *rangeCheck) references(e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.Pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether, somewhere after the range statement in
// the enclosing function body, a sort call receives the collected slice.
// sort.* and slices.Sort* qualify, as does any function whose name
// contains "sort" (the kernel's own sortEntries idiom).
func sortedAfter(pass *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt, destKey string) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		name := exprKey(call.Fun)
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, a := range call.Args {
			arg := sliceBase(a)
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = ast.Unparen(u.X)
			}
			if exprKey(arg) == destKey {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
