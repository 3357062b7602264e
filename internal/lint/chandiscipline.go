package lint

import (
	"go/ast"
	"go/types"
)

// ChanDiscipline checks goroutine lifetime and channel ownership, the
// two halves of the concurrency topology the engine and the fabric
// depend on. Every go statement must be tracked by a sync.WaitGroup
// (Add in the launching function, Done in the goroutine body), so no
// operator instance or server helper outlives its owner, and every
// goroutine running an unbounded loop needs a way to be told to stop.
// Only the goroutine that creates and sends on a channel may close it,
// and nothing may send on a channel that may already be closed.
func ChanDiscipline() *Analyzer {
	return &Analyzer{
		Name: "chan-discipline",
		Doc: "Every go statement must be tracked by a sync.WaitGroup (Add in the launching " +
			"function, Done in the goroutine body); a goroutine whose body is an unbounded " +
			"for-loop with no return or break (e.g. no ctx.Done() case that exits) can never be " +
			"stopped and leaks. Channel ownership: close() in a function that receives from the " +
			"channel but never sends on it, or on a channel received as a parameter, is " +
			"close-by-non-owner (a second closer panics); sending on a channel after close() on " +
			"the same path panics unconditionally.",
		Dirs: []string{"internal/engine", "internal/queue", "internal/server", "internal/storage", "internal/storm", "cmd"},
		Run:  runChanDiscipline,
	}
}

func runChanDiscipline(w *WholePass) {
	for _, pkg := range w.Scoped() {
		sendAfterClose := pathWalk[bool]{join: true, visit: func(n ast.Node, closed map[string]bool) {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, isCall := s.X.(*ast.CallExpr); isCall && len(call.Args) == 1 && isBuiltinCall(pkg, call, "close") {
					closed[types.ExprString(ast.Unparen(call.Args[0]))] = true
				}
			case *ast.SendStmt:
				if closed[types.ExprString(ast.Unparen(s.Chan))] {
					w.Reportf(s.Pos(), "send on %s after close() on the same path; sending on a closed channel panics", types.ExprString(s.Chan))
				}
			}
		}}
		for _, f := range pkg.Files {
			walkFunctions(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
				checkGoStatements(w, pkg, body)
				checkCloses(w, pkg, decl, body)
				sendAfterClose.block(body.List, map[string]bool{})
			})
		}
	}
}

// checkGoStatements checks the go statements whose nearest enclosing
// function is body's: each must be tracked by a WaitGroup and, when its
// body is an unbounded loop, have a way out of it.
func checkGoStatements(w *WholePass, u *Package, body *ast.BlockStmt) {
	var goStmts []*ast.GoStmt
	inspectShallow(body, func(n ast.Node) bool {
		if g, isGo := n.(*ast.GoStmt); isGo {
			goStmts = append(goStmts, g)
			// Do not descend: the goroutine body's own go statements
			// belong to that function literal's walkFunctions visit.
			return false
		}
		return true
	})
	if len(goStmts) == 0 {
		return
	}
	// The launching function must arrange tracking: a WaitGroup.Add call
	// anywhere in its body (including inside loops around the launch).
	hasAdd := callsWaitGroup(u, body, "Add")
	for _, g := range goStmts {
		lit, isLit := g.Call.Fun.(*ast.FuncLit)
		switch {
		case !hasAdd:
			w.Reportf(g.Pos(), "go statement is not tracked by a sync.WaitGroup in the same function (no Add call); untracked goroutines leak")
		case !isLit || !callsWaitGroup(u, lit.Body, "Done"):
			w.Reportf(g.Pos(), "goroutine never calls WaitGroup.Done; the launching function's Wait will hang or the goroutine leaks")
		}
		if isLit && spinsForever(lit.Body) {
			w.Reportf(g.Pos(),
				"goroutine runs an unbounded loop with no cancellation path (no return, break, or ctx.Done() case that exits); it can never be stopped")
		}
	}
}

// callsWaitGroup reports whether n calls the named sync.WaitGroup method.
func callsWaitGroup(u *Package, n ast.Node, method string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if call, isCall := x.(*ast.CallExpr); isCall && !found {
			_, pkgPath, typeName, m, ok := methodCallOn(u, call)
			found = ok && pkgPath == "sync" && typeName == "WaitGroup" && m == method
		}
		return !found
	})
	return found
}

// spinsForever reports whether a goroutine body holds a `for { ... }`
// loop with no exit: no return, no break binding to the loop, no panic.
// Such a goroutine cannot be cancelled or joined — the leak gate in
// internal/testutil catches them at test time, this rule at lint time.
func spinsForever(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if loop, isFor := m.(*ast.ForStmt); isFor && loop.Cond == nil && !loopHasExit(loop.Body.List, true) {
			found = true
		}
		return !found
	})
	return found
}

// checkCloses flags close(ch) by a non-owner: in a function that
// receives from ch but never sends on it, or on a channel that the
// enclosing declaration received as a parameter — the closer did not
// create the channel, so it cannot know it is the unique owner, and a
// double close panics.
func checkCloses(w *WholePass, u *Package, decl *ast.FuncDecl, body *ast.BlockStmt) {
	type chanUse struct{ sends, receives bool }
	uses := map[string]*chanUse{} // keyed by rendered channel expression
	use := func(expr ast.Expr) *chanUse {
		key := types.ExprString(expr)
		if uses[key] == nil {
			uses[key] = &chanUse{}
		}
		return uses[key]
	}
	var closes []*ast.CallExpr
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if len(s.Args) == 1 && isBuiltinCall(u, s, "close") {
				closes = append(closes, s)
			}
		case *ast.SendStmt:
			use(s.Chan).sends = true
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				use(s.X).receives = true
			}
		case *ast.RangeStmt:
			if t := u.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					use(s.X).receives = true
				}
			}
		}
		return true
	})
	params := map[types.Object]bool{}
	if decl != nil && decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := u.ObjectOf(name); obj != nil {
					params[obj] = true
				}
			}
		}
	}
	for _, c := range closes {
		key := types.ExprString(c.Args[0])
		if cu := uses[key]; cu != nil && cu.receives && !cu.sends {
			w.Reportf(c.Pos(), "close(%s) in a function that receives from it; only the sending side may close a channel", key)
			continue
		}
		if id, isIdent := ast.Unparen(c.Args[0]).(*ast.Ident); isIdent && params[u.ObjectOf(id)] {
			w.Reportf(c.Pos(),
				"close(%s) closes a channel received as a parameter; only the owner that created the channel (and is the sole sender) may close it", id.Name)
		}
	}
}

// loopHasExit reports whether the loop body can leave the loop:
// a return anywhere, a panic, or a break that binds to this loop.
// breakBinds tracks whether an unlabeled break at the current nesting
// level still targets the loop (false inside nested for/switch/select,
// where break binds to the inner construct).
func loopHasExit(list []ast.Stmt, breakBinds bool) bool {
	for _, st := range list {
		if stmtHasExit(st, breakBinds) {
			return true
		}
	}
	return false
}

func stmtHasExit(st ast.Stmt, breakBinds bool) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		// A labeled break/continue/goto targets an enclosing construct —
		// conservatively assume it leaves this loop.
		if s.Label != nil {
			return true
		}
		return s.Tok.String() == "break" && breakBinds
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return loopHasExit(s.List, breakBinds)
	case *ast.LabeledStmt:
		return stmtHasExit(s.Stmt, breakBinds)
	case *ast.IfStmt:
		if loopHasExit(s.Body.List, breakBinds) {
			return true
		}
		if s.Else != nil {
			return stmtHasExit(s.Else, breakBinds)
		}
	case *ast.ForStmt:
		return loopHasExit(s.Body.List, false)
	case *ast.RangeStmt:
		return loopHasExit(s.Body.List, false)
	case *ast.SwitchStmt:
		return clausesHaveExit(s.Body)
	case *ast.TypeSwitchStmt:
		return clausesHaveExit(s.Body)
	case *ast.SelectStmt:
		return clausesHaveExit(s.Body)
	}
	return false
}

func clausesHaveExit(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			if loopHasExit(c.Body, false) {
				return true
			}
		case *ast.CommClause:
			if loopHasExit(c.Body, false) {
				return true
			}
		}
	}
	return false
}
