package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// pkgFuncCall reports whether call invokes a package-level function and
// returns the package path and function name (e.g. "time", "Now").
func pkgFuncCall(u *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := u.ObjectOf(id).(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCallOn reports whether call is a method call and returns the
// receiver expression plus the defining package path and named type of
// the receiver (pointers unwrapped), e.g. ("sync", "WaitGroup").
func methodCallOn(u *Package, call *ast.CallExpr) (recv ast.Expr, pkgPath, typeName, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", "", false
	}
	named := namedOfType(u.TypeOf(sel.X))
	if named == nil {
		return nil, "", "", "", false
	}
	return sel.X, namedPkgPath(named), named.Obj().Name(), sel.Sel.Name, true
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(u *Package, call *ast.CallExpr, name string) bool {
	id, isID := ast.Unparen(call.Fun).(*ast.Ident)
	if !isID || id.Name != name {
		return false
	}
	_, isBuiltin := u.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// namedOfType returns t's named type with one pointer unwrapped, or nil.
func namedOfType(t types.Type) *types.Named {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func namedPkgPath(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// containsLock returns the name of the first sync primitive found when
// traversing t by value (struct fields, arrays, embedded), or "".
func containsLock(t types.Type) string {
	return lockIn(t, map[types.Type]bool{})
}

var lockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

func lockIn(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypes[obj.Name()] {
			return "sync." + obj.Name()
		}
		return lockIn(tt.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if found := lockIn(tt.Field(i).Type(), seen); found != "" {
				return found
			}
		}
	case *types.Array:
		return lockIn(tt.Elem(), seen)
	}
	return ""
}

// inspectShallow walks n without descending into nested function
// literals, so per-function analyses see only their own statements.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(child ast.Node) bool {
		if _, isLit := child.(*ast.FuncLit); isLit && child != n {
			return false
		}
		return fn(child)
	})
}

// walkFunctions visits every function body (declaration or literal) in
// the file exactly once, passing the declaration that encloses it: the
// function itself for a declaration, the surrounding one for a literal,
// nil for a literal at package level.
func walkFunctions(f *ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	var decl *ast.FuncDecl
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			decl = fn
			if fn.Body != nil {
				visit(fn, fn.Body)
			}
		case *ast.GenDecl:
			decl = nil
		case *ast.FuncLit:
			visit(decl, fn.Body)
		}
		return true
	})
}

// modulePathOf derives the module path from a package's import path and
// module-relative directory.
func modulePathOf(pkg *Package) string {
	if pkg.Dir == "." {
		return pkg.Path
	}
	if n := len(pkg.Path) - len(pkg.Dir) - 1; n > 0 && pkg.Path[n:] == "/"+pkg.Dir {
		return pkg.Path[:n]
	}
	return pkg.Path
}

// pathWalk walks one function body in statement order, carrying a fact
// set along the current path: lease tokens consumed, channels closed,
// locks held. Every branch body (if and else, loop body, case or comm
// clause) runs on its own copy. With join set, a branch that can fall
// through merges the facts it added back into the path; a branch that
// terminates (return, panic, break, continue, goto) merges nothing, so
// Fail-then-return above Complete is not a second use. visit sees every
// simple statement and every expression the path evaluates (conditions,
// switch tags and cases, range operands) in order; it does not see
// into function literals unless it walks them itself.
type pathWalk[V any] struct {
	join  bool
	visit func(n ast.Node, facts map[string]V)
}

func (pw *pathWalk[V]) block(list []ast.Stmt, facts map[string]V) {
	for _, st := range list {
		pw.stmt(st, facts)
	}
}

func (pw *pathWalk[V]) branch(list []ast.Stmt, facts map[string]V) {
	inner := maps.Clone(facts)
	pw.block(list, inner)
	if !pw.join || terminates(list) {
		return
	}
	for k, v := range inner {
		if _, seen := facts[k]; !seen {
			facts[k] = v
		}
	}
}

func (pw *pathWalk[V]) stmt(st ast.Stmt, facts map[string]V) {
	switch s := st.(type) {
	case nil:
	case *ast.BlockStmt:
		pw.block(s.List, facts)
	case *ast.LabeledStmt:
		pw.stmt(s.Stmt, facts)
	case *ast.IfStmt:
		pw.stmt(s.Init, facts)
		pw.expr(s.Cond, facts)
		pw.branch(s.Body.List, facts)
		if s.Else != nil {
			pw.branch([]ast.Stmt{s.Else}, facts)
		}
	case *ast.ForStmt:
		pw.stmt(s.Init, facts)
		pw.expr(s.Cond, facts)
		pw.branch(s.Body.List, facts)
	case *ast.RangeStmt:
		pw.expr(s.X, facts)
		pw.branch(s.Body.List, facts)
	case *ast.SwitchStmt:
		pw.stmt(s.Init, facts)
		pw.expr(s.Tag, facts)
		pw.clauses(s.Body, facts)
	case *ast.TypeSwitchStmt:
		pw.stmt(s.Init, facts)
		pw.clauses(s.Body, facts)
	case *ast.SelectStmt:
		pw.clauses(s.Body, facts)
	default:
		pw.visit(st, facts)
	}
}

func (pw *pathWalk[V]) expr(e ast.Expr, facts map[string]V) {
	if e != nil {
		pw.visit(e, facts)
	}
}

func (pw *pathWalk[V]) clauses(body *ast.BlockStmt, facts map[string]V) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				pw.expr(e, facts)
			}
			pw.branch(c.Body, facts)
		case *ast.CommClause:
			list := c.Body
			if c.Comm != nil {
				list = append([]ast.Stmt{c.Comm}, c.Body...)
			}
			pw.branch(list, facts)
		}
	}
}

// terminates reports whether a statement list cannot fall through: its
// last statement returns, branches away, or panics. Nested if/else and
// blocks are checked recursively.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body.List) && terminates([]ast.Stmt{s.Else})
	}
	return false
}
