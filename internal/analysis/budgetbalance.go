package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BudgetBalance flags acquire-style budget/slot operations (ReserveKV,
// Acquire, Reserve) that reach an error/failure return with
// no paired release, rollback, or deferred release in between — the
// PR 5/6 bug class where a failed growth or admission path leaked
// preload bytes or pool slots.
//
// The check is function-local and source-order based (path-insensitive):
// it reports an error return only when, after a successful acquire, no
// release-named call, no armed `defer` release, and no other use of the
// acquired resource appears before the return. Acquires on loop
// variables are skipped. //sti:budgetok <why> suppresses a finding at
// the acquire or the return line.
var BudgetBalance = &Analyzer{
	Name: "budgetbalance",
	Doc:  "budget/slot acquisitions must be released or rolled back on error paths",
	Run:  runBudgetBalance,
}

type budgetPair struct {
	acquire  string
	releases []string
}

var budgetPairs = []budgetPair{
	{"ReserveKV", []string{"ReleaseKV"}},
	{"Acquire", []string{"Release"}},
	{"Reserve", []string{"Free", "Release", "ReleaseKV"}},
}

// budgetSelfNames are acquire/release implementations themselves, which
// must not be checked against their own bodies.
var budgetSelfNames = map[string]bool{}

func init() {
	for _, p := range budgetPairs {
		budgetSelfNames[p.acquire] = true
		for _, r := range p.releases {
			budgetSelfNames[r] = true
		}
	}
}

func runBudgetBalance(pass *Pass) error {
	ann := pass.Annotations("budgetok")
	for _, pkg := range pass.Scoped() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || budgetSelfNames[fd.Name.Name] {
					continue
				}
				checkBudgetFunc(pass, pkg.Info, fd.Type, fd.Body, ann)
				// Closures get their own scope (acquires inside an
				// immediately-invoked closure stay local to it).
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkBudgetFunc(pass, pkg.Info, lit.Type, lit.Body, ann)
					}
					return true
				})
			}
		}
	}
	return nil
}

// budgetEvent is one source-ordered occurrence inside a function body.
type budgetEvent struct {
	pos token.Pos
	// exactly one of:
	acquire *acquireSite
	release string // selector name of a release-like call
	ret     *ast.ReturnStmt
	useOf   types.Object // use of a tracked resource object
}

type acquireSite struct {
	pair budgetPair
	call *ast.CallExpr
	recv string
}

func checkBudgetFunc(pass *Pass, info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt, ann *AnnotationSet) {
	loopVars := collectLoopVars(info, body)
	releaseNames := map[string]bool{}
	for _, p := range budgetPairs {
		for _, r := range p.releases {
			releaseNames[r] = true
		}
	}

	var events []budgetEvent
	// trackedObjs is filled as acquires are found so later ident uses
	// can be recorded.
	trackedObjs := map[types.Object]bool{}

	var scan func(n ast.Node, inDefer bool)
	scan = func(root ast.Node, inDefer bool) {
		_ = inDefer
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if root == n {
					return true
				}
				// Releases inside nested closures still count (handoff
				// to a goroutine or deferred cleanup); returns and
				// acquires inside them belong to the closure's own
				// scope (checked separately).
				scanReleases(info, n.Body, releaseNames, &events)
				return false
			case *ast.DeferStmt:
				scan(n.Call, true)
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					name := sel.Sel.Name
					if releaseNames[name] {
						events = append(events, budgetEvent{pos: n.Pos(), release: name})
						return true
					}
					for _, p := range budgetPairs {
						if name == p.acquire && !rootIsLoopVar(info, sel.X, loopVars) {
							events = append(events, budgetEvent{pos: n.Pos(), acquire: &acquireSite{
								pair: p, call: n, recv: types.ExprString(sel.X),
							}})
						}
					}
				}
				return true
			case *ast.ReturnStmt:
				events = append(events, budgetEvent{pos: n.Pos(), ret: n})
				return true
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && trackedObjs[obj] {
					events = append(events, budgetEvent{pos: n.Pos(), useOf: obj})
				}
				return true
			}
			return true
		})
	}

	// Pass 1: find acquires and bind their result objects + failure guards.
	bindAcquires(info, body, trackedObjs)
	// Pass 2: full event scan in source order.
	scan(body, false)

	errorReturns := errorReturnSet(info, ftype, body)

	for i, ev := range events {
		if ev.acquire == nil {
			continue
		}
		acq := ev.acquire
		if ann.Allows(pass.Fset, acq.call.Pos()) {
			continue
		}
		guard := findFailureGuard(info, body, acq.call)
		for _, later := range events[i+1:] {
			if later.ret == nil || !errorReturns[later.ret] {
				continue
			}
			if guard != nil && within(guard, later.ret.Pos()) {
				continue // the acquire's own failure check
			}
			if ann.Allows(pass.Fset, later.ret.Pos()) {
				continue
			}
			covered := false
			for _, mid := range events[i+1:] {
				if mid.pos >= later.ret.Pos() {
					break
				}
				if mid.release != "" && matchesRelease(acq.pair, mid.release) {
					covered = true
					break
				}
				if mid.useOf != nil && isAcquireResult(info, body, acq.call, mid.useOf) &&
					(guard == nil || !within(guard, mid.pos)) {
					covered = true // resource consumed/escaped; ownership moved on
					break
				}
			}
			if !covered {
				pass.Reportf(later.ret.Pos(), "%s.%s acquired at %s is not released or rolled back on this error path", acq.recv, acq.pair.acquire, shortPos(pass.Fset, acq.call.Pos()))
			}
			break // one report per acquire: the first uncovered error return
		}
	}
}

func matchesRelease(p budgetPair, name string) bool {
	for _, r := range p.releases {
		if r == name {
			return true
		}
	}
	return false
}

// scanReleases records release-named calls inside nested closures.
func scanReleases(info *types.Info, body ast.Node, releaseNames map[string]bool, events *[]budgetEvent) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
				*events = append(*events, budgetEvent{pos: call.Pos(), release: sel.Sel.Name})
			}
		}
		return true
	})
}

// bindAcquires records the result objects of `x, err := recv.Acquire()`
// style statements so later uses can be tracked.
func bindAcquires(info *types.Info, body *ast.BlockStmt, tracked map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		isAcq := false
		for _, p := range budgetPairs {
			if sel.Sel.Name == p.acquire {
				isAcq = true
			}
		}
		if !isAcq {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && id.Name != "err" && id.Name != "ok" {
				if obj := info.Defs[id]; obj != nil {
					tracked[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					tracked[obj] = true
				}
			}
		}
		return true
	})
}

// isAcquireResult reports whether obj was bound by this acquire call.
func isAcquireResult(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || as.Rhs[0] != call {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if info.Defs[id] == obj || info.Uses[id] == obj {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// findFailureGuard locates the acquire's own failure check: either the
// `if err != nil {...}` / `if !ok {...}` statement immediately following
// `res, err := x.Acquire()`, or the if statement whose condition
// contains the acquire call itself (`if !x.Reserve() { ... }`).
func findFailureGuard(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) *ast.IfStmt {
	var guard *ast.IfStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if guard != nil {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if within(ifs.Cond, call.Pos()) || (ifs.Init != nil && within(ifs.Init, call.Pos())) {
			guard = ifs
			return false
		}
		return true
	})
	if guard != nil {
		return guard
	}
	// `res, err := x.Acquire()` followed by `if err != nil { ... }`.
	ast.Inspect(body, func(n ast.Node) bool {
		if guard != nil {
			return false
		}
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range blk.List {
			if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && as.Rhs[0] == call {
				if i+1 < len(blk.List) {
					if ifs, ok := blk.List[i+1].(*ast.IfStmt); ok {
						guard = ifs
					}
				}
			}
		}
		return true
	})
	return guard
}

func within(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}

// errorReturnSet marks returns whose trailing result is a non-nil error
// (or a literal `false` for bool-returning reserve-style functions).
func errorReturnSet(info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt) map[*ast.ReturnStmt]bool {
	out := map[*ast.ReturnStmt]bool{}
	if ftype.Results == nil || len(ftype.Results.List) == 0 {
		return out
	}
	last := ftype.Results.List[len(ftype.Results.List)-1].Type
	trailingErr := isErrorType(info, last)
	trailingBool := isBoolType(info, last)
	if !trailingErr && !trailingBool {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			// Naked return with named results: can't tell; skip.
			return true
		}
		lastExpr := ast.Unparen(ret.Results[len(ret.Results)-1])
		if trailingErr {
			if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
			out[ret] = true
		} else if trailingBool {
			if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "false" {
				out[ret] = true
			}
		}
		return true
	})
	return out
}

func isErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

func isBoolType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// collectLoopVars gathers range-statement key/value objects.
func collectLoopVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func rootIsLoopVar(info *types.Info, e ast.Expr, loopVars map[types.Object]bool) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			return loopVars[info.Uses[t]]
		default:
			return false
		}
	}
}
