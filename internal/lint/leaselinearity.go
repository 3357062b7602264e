package lint

import (
	"go/ast"
	"go/types"

	"pdspbench/internal/lint/flow"
)

// LeaseLinearity treats internal/queue lease tokens as linear values.
// A LeaseID is single-use by protocol: Complete and Fail consume it
// (the queue clears it and rejects any echo as ErrStaleLease), so code
// that keeps using a token after passing it to a consumer, or parks it
// in a structure that outlives the lease, is writing requests the
// dispatcher is guaranteed to reject — or worse, masking a lost lease.
func LeaseLinearity() *Analyzer {
	return &Analyzer{
		Name: "lease-linearity",
		Doc: "Lease tokens (LeaseID fields minted by internal/queue) are linear: once passed " +
			"to a consuming call (Complete/Fail), the token is dead and must not be read " +
			"again on that path, and it must not be stored into a struct field or map that " +
			"outlives the lease. Extend renews without consuming. Consumption inside a " +
			"terminating branch (return/panic/break) does not poison the fall-through path.",
		Dirs: []string{"internal/queue", "internal/server", "cmd"},
		Run:  runLeaseLinearity,
	}
}

func runLeaseLinearity(w *WholePass) {
	for _, fn := range w.Program.All() {
		if !w.InScope(fn.Unit) {
			continue
		}
		ls := &leaseScan{u: fn.Unit, w: w, vars: map[types.Object]bool{}}
		ls.walk = pathWalk[string]{join: true, visit: ls.visit}
		ls.walk.block(fn.Decl.Body.List, map[string]string{})
	}
}

// leaseScan walks one function in statement order, tracking which token
// expressions have been consumed on the current path and by which call.
type leaseScan struct {
	u    *Package
	w    *WholePass
	walk pathWalk[string]
	// vars are local identifiers assigned from token expressions; they
	// carry the token's linearity.
	vars map[types.Object]bool
}

func (ls *leaseScan) visit(n ast.Node, consumed map[string]string) {
	if s, isAssign := n.(*ast.AssignStmt); isAssign {
		for _, rhs := range s.Rhs {
			ls.exprNode(rhs, consumed)
		}
		ls.assign(s)
		return
	}
	ls.exprNode(n, consumed)
}

// assign tracks token flow through locals and reports tokens escaping
// into fields or maps. Writes to a destination itself named LeaseID are
// the queue's own bookkeeping (minting, clearing, echoing into request
// structs) and are exempt.
func (ls *leaseScan) assign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		if _, isToken := ls.tokenKey(s.Rhs[i]); !isToken {
			continue
		}
		switch dst := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := ls.u.ObjectOf(dst); obj != nil {
				ls.vars[obj] = true
			}
		case *ast.SelectorExpr:
			if dst.Sel.Name != "LeaseID" {
				ls.w.Reportf(s.Pos(),
					"lease token stored into field %s, which outlives the lease; tokens are linear — pass them to Complete/Fail and forget them", dst.Sel.Name)
			}
		case *ast.IndexExpr:
			ls.w.Reportf(s.Pos(),
				"lease token stored into a map/slice, which outlives the lease; tokens are linear — pass them to Complete/Fail and forget them")
		}
	}
}

// exprNode reports token reads on consumed paths and marks tokens
// passed to consuming calls.
func (ls *leaseScan) exprNode(n ast.Node, consumed map[string]string) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			// A closure shares the frame's tokens; scan with the same set.
			ls.walk.block(e.Body.List, consumed)
			return false
		case *ast.CallExpr:
			name, isConsumer := leaseConsumerCall(ls.u, e)
			if !isConsumer {
				return true
			}
			for _, arg := range e.Args {
				ls.exprNode(arg, consumed)
			}
			for _, arg := range e.Args {
				if key, isToken := ls.tokenKey(arg); isToken {
					consumed[key] = name
				}
			}
			return false
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				kv, isKV := elt.(*ast.KeyValueExpr)
				if !isKV {
					ls.exprNode(elt, consumed)
					continue
				}
				keyIdent, isIdent := kv.Key.(*ast.Ident)
				ls.exprNode(kv.Value, consumed)
				if _, isToken := ls.tokenKey(kv.Value); isToken {
					if !isIdent || keyIdent.Name != "LeaseID" {
						ls.w.Reportf(kv.Pos(),
							"lease token stored into a composite literal field, which may outlive the lease; tokens are linear")
					}
				}
			}
			return false
		case *ast.SelectorExpr, *ast.Ident:
			if key, isToken := ls.tokenKey(e.(ast.Expr)); isToken {
				if by, dead := consumed[key]; dead {
					ls.w.Reportf(e.Pos(),
						"lease token %s used after being consumed by %s; leases are single-use — the queue will reject this as a stale lease", key, by)
				}
				return false
			}
		}
		return true
	})
}

// tokenKey identifies an expression carrying a lease token: a read of a
// LeaseID field on a struct declared in a package named "queue", or a
// local variable previously assigned from one. The key is the rendered
// expression, so job.LeaseID and other.LeaseID stay distinct.
func (ls *leaseScan) tokenKey(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "LeaseID" {
			return "", false
		}
		v, isVar := ls.u.ObjectOf(x.Sel).(*types.Var)
		if !isVar || !v.IsField() || v.Pkg() == nil || v.Pkg().Name() != "queue" {
			return "", false
		}
		return types.ExprString(x), true
	case *ast.Ident:
		if obj := ls.u.ObjectOf(x); obj != nil && ls.vars[obj] {
			return x.Name, true
		}
	}
	return "", false
}

// leaseConsumerCall reports whether a call consumes a lease token: a
// method named Complete or Fail on a type declared in a package named
// "queue". Extend deliberately is not a consumer — it renews the lease.
func leaseConsumerCall(u *Package, call *ast.CallExpr) (string, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	obj, isFunc := u.ObjectOf(sel.Sel).(*types.Func)
	if !isFunc {
		return "", false
	}
	if obj.Name() != "Complete" && obj.Name() != "Fail" {
		return "", false
	}
	recv := flow.NamedRecv(obj)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Name() != "queue" {
		return "", false
	}
	return recv.Obj().Name() + "." + obj.Name(), true
}
