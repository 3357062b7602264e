package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"pdspbench/internal/lint/flow"
)

// LockOrder checks the mutex protocol end to end. Per function: a sync
// primitive copied by value guards nothing, and a Lock with no matching
// Unlock in the same function is a latent deadlock under contention.
// Across packages: it builds a mutex acquisition-order graph and reports
// edges that participate in a cycle — if one code path acquires A
// before B and another acquires B before A, two goroutines can each hold
// one lock and wait forever for the other. It also pins the documented
// internal/storage contract: Store.mu is the fabric's leaf lock, so
// nothing may be acquired while holding it.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lock-order",
		Doc: "sync.Mutex/RWMutex/WaitGroup/Once/Cond must not be passed or copied by value, " +
			"and every Lock()/RLock() must have a matching (usually deferred) Unlock in the " +
			"same function. Cross-package sync.Mutex/RWMutex acquisition order must be " +
			"acyclic: the rule tracks held locks through static call chains (e.g. " +
			"internal/queue holding Queue.mu while calling into internal/storage) and " +
			"reports every acquisition edge that closes a cycle, plus any lock acquired " +
			"while holding the leaf lock internal/storage Store.mu.",
		Run: runLockOrder,
	}
}

// storageLeafLock is the documented leaf of the fabric's lock order:
// internal/storage serializes all file operations under one mutex and
// must never wait on another lock while holding it.
const storageLeafLock = "pdspbench/internal/storage.Store.mu"

type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(w *WholePass) {
	for _, pkg := range w.Scoped() {
		for _, f := range pkg.Files {
			checkLockCopies(w, pkg, f)
			walkFunctions(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
				checkLockPairs(w, pkg, body)
			})
		}
	}

	var edges []lockEdge
	seen := make(map[[2]string]bool)
	acq := lockAcquires(w.Program)
	for _, fn := range w.Program.All() {
		lw := &lockWalker{
			u:    fn.Unit,
			prog: w.Program,
			acq:  acq,
			emit: func(from, to string, pos token.Pos) {
				key := [2]string{from, to}
				if seen[key] {
					return
				}
				seen[key] = true
				edges = append(edges, lockEdge{from: from, to: to, pos: pos})
			},
		}
		lw.walk = pathWalk[int]{visit: lw.visit}
		lw.walk.block(fn.Decl.Body.List, map[string]int{})
	}

	adjacency := make(map[string][]string)
	for _, e := range edges {
		adjacency[e.from] = append(adjacency[e.from], e.to)
	}
	for _, e := range edges {
		if e.from == storageLeafLock {
			w.Reportf(e.pos,
				"acquiring %s while holding %s violates the storage locking contract: Store.mu is the fabric's leaf lock and nothing may be acquired under it",
				e.to, e.from)
			continue
		}
		if reachesClass(adjacency, e.to, e.from) {
			w.Reportf(e.pos,
				"acquiring %s while holding %s creates a lock-order cycle: %s is elsewhere (transitively) acquired before %s; pick one order and use it everywhere",
				e.to, e.from, e.from, e.to)
		}
	}
}

// reachesClass reports whether `to` can reach `from` over acquisition
// edges, i.e. the edge from→to closes a cycle.
func reachesClass(adj map[string][]string, start, target string) bool {
	seen := map[string]bool{}
	stack := []string{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == target {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, adj[n]...)
	}
	return false
}

// lockAcquires is the per-function fact: which lock classes a function
// (transitively) acquires. Shared via the program memo so one fixpoint
// serves the whole run.
func lockAcquires(prog *flow.Program) map[*flow.Func]map[string]bool {
	return prog.Memo("lint.lock-acquires", func() any {
		acq := make(map[*flow.Func]map[string]bool, len(prog.All()))
		for _, fn := range prog.All() {
			classes := map[string]bool{}
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall {
					if class, op := lockOp(fn.Unit, call); op == lockAcquire && class != "" {
						classes[class] = true
					}
				}
				return true
			})
			acq[fn] = classes
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range prog.All() {
				for _, callee := range fn.Calls {
					for class := range acq[callee] {
						if !acq[fn][class] {
							acq[fn][class] = true
							changed = true
						}
					}
				}
			}
		}
		return acq
	}).(map[*flow.Func]map[string]bool)
}

// lockWalker scans one function in statement order, keeping a count of
// each lock class held on the current path. Branch bodies run on a copy
// of the held set and never leak acquisitions past the branch —
// conservative in the may-miss direction, never inventing a held lock.
type lockWalker struct {
	u    *Package
	prog *flow.Program
	acq  map[*flow.Func]map[string]bool
	emit func(from, to string, pos token.Pos)
	walk pathWalk[int]
}

func (lw *lockWalker) visit(n ast.Node, held map[string]int) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if class, op := lockOp(lw.u, call); op != lockNone {
				switch {
				case class == "":
				case op == lockAcquire:
					lw.edgesTo(held, class, call.Pos())
					held[class]++
				case held[class] > 1:
					held[class]--
				default:
					delete(held, class)
				}
				return
			}
		}
	case *ast.DeferStmt:
		if class, op := lockOp(lw.u, s.Call); op != lockNone {
			// Deferred unlock releases at function exit: the lock stays
			// held for every statement below, which is exactly how the
			// ordering must be computed.
			if op == lockAcquire && class != "" {
				lw.edgesTo(held, class, s.Call.Pos())
				held[class]++
			}
			return
		}
	case *ast.GoStmt:
		// A spawned goroutine starts with an empty held set; its
		// arguments are evaluated in the current one.
		if lit, isLit := s.Call.Fun.(*ast.FuncLit); isLit {
			lw.walk.block(lit.Body.List, map[string]int{})
		}
		for _, arg := range s.Call.Args {
			lw.calls(arg, held)
		}
		return
	}
	lw.calls(n, held)
}

// edgesTo emits an order edge from every held class to class.
func (lw *lockWalker) edgesTo(held map[string]int, class string, pos token.Pos) {
	for h := range held {
		if h != class {
			lw.emit(h, class, pos)
		}
	}
}

// calls emits edges for every statically resolved call in n using the
// callee's transitive acquire set, and scans function literals with a
// copy of the held set (a closure invoked here runs in this frame).
func (lw *lockWalker) calls(n ast.Node, held map[string]int) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			lw.walk.block(e.Body.List, maps.Clone(held))
			return false
		case *ast.CallExpr:
			if class, op := lockOp(lw.u, e); op != lockNone {
				if op == lockAcquire && class != "" {
					lw.edgesTo(held, class, e.Pos())
				}
				return true
			}
			if obj := flow.CalleeOf(lw.u, e); obj != nil {
				for class := range lw.acq[lw.prog.FuncOf(obj)] {
					lw.edgesTo(held, class, e.Pos())
				}
			}
		}
		return true
	})
}

type lockOpKind int

const (
	lockNone lockOpKind = iota
	lockAcquire
	lockRelease
)

// lockOp classifies a call as a mutex acquire/release and names the
// lock class it operates on ("" when the class is untrackable, e.g. a
// local mutex variable).
func lockOp(u *Package, call *ast.CallExpr) (string, lockOpKind) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", lockNone
	}
	obj, isFunc := u.ObjectOf(sel.Sel).(*types.Func)
	if !isFunc || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", lockNone
	}
	recv := flow.NamedRecv(obj)
	if recv == nil {
		return "", lockNone
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", lockNone
	}
	var kind lockOpKind
	switch obj.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", lockNone
	}
	return lockClass(u, sel.X), kind
}

// lockClass names the lock a receiver expression denotes. Classes are
// identity-by-declaration: "pkgpath.Type.field" for struct-field
// mutexes, "pkgpath.var" for package-level mutexes, and
// "pkgpath.Type.(embedded)" for types embedding a mutex. Local mutex
// variables have no cross-function identity and return "".
func lockClass(u *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v, isVar := u.ObjectOf(x.Sel).(*types.Var)
		if !isVar {
			return ""
		}
		if v.IsField() {
			if named := namedOfType(u.TypeOf(x.X)); named != nil {
				return qualifiedTypeName(named) + "." + v.Name()
			}
			return ""
		}
		return packageVarClass(v)
	case *ast.Ident:
		v, isVar := u.ObjectOf(x).(*types.Var)
		if !isVar {
			return ""
		}
		if class := packageVarClass(v); class != "" {
			return class
		}
		// Receiver or local of a named type embedding the mutex.
		if named := namedOfType(v.Type()); named != nil && namedPkgPath(named) != "sync" {
			return qualifiedTypeName(named) + ".(embedded)"
		}
	}
	return ""
}

func packageVarClass(v *types.Var) string {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

func qualifiedTypeName(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// checkLockCopies flags by-value parameters/receivers whose type
// contains a sync primitive, and assignments or call arguments that copy
// an existing lock-containing value.
func checkLockCopies(w *WholePass, u *Package, f *ast.File) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := u.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if lock := containsLock(t); lock != "" {
				w.Reportf(field.Type.Pos(), "%s passes %s by value; the copy guards nothing — use a pointer", what, lock)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(s.Recv, "receiver")
			checkFieldList(s.Type.Params, "parameter")
		case *ast.FuncLit:
			checkFieldList(s.Type.Params, "parameter")
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if copiesLockValue(u, rhs) {
					w.Reportf(rhs.Pos(), "assignment copies a value containing %s; use a pointer", containsLock(u.TypeOf(rhs)))
				}
			}
		case *ast.CallExpr:
			for _, arg := range s.Args {
				if copiesLockValue(u, arg) {
					w.Reportf(arg.Pos(), "call passes a value containing %s by value; use a pointer", containsLock(u.TypeOf(arg)))
				}
			}
		}
		return true
	})
}

// copiesLockValue reports whether evaluating expr copies an existing
// value whose type contains a sync primitive. Creation forms (composite
// literals, constructor calls) and pointers are fine; reads of existing
// variables (idents, selectors, derefs, indexing) are copies.
func copiesLockValue(u *Package, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		t := u.TypeOf(expr)
		if t == nil {
			return false
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			return false
		}
		if id, isID := e.(*ast.Ident); isID {
			// A bare type name or nil is not a value copy.
			if _, isVar := u.ObjectOf(id).(*types.Var); !isVar {
				return false
			}
		}
		return containsLock(t) != ""
	}
	return false
}

// lockMethods maps a locking method to its required counterpart.
var lockMethods = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkLockPairs requires every mutex Lock/RLock in a function to be
// followed by its Unlock counterpart (deferred or direct) on the same
// lock expression within that function.
func checkLockPairs(w *WholePass, u *Package, body *ast.BlockStmt) {
	var locks []*ast.CallExpr
	released := map[string]bool{} // "lockee.Method" for every other method called
	inspectShallow(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		recv, pkgPath, typeName, method, ok := methodCallOn(u, call)
		if !ok || pkgPath != "sync" || (typeName != "Mutex" && typeName != "RWMutex") {
			return true
		}
		if lockMethods[method] != "" {
			locks = append(locks, call)
		} else {
			released[types.ExprString(recv)+"."+method] = true
		}
		return true
	})
	for _, call := range locks {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		lockee, want := types.ExprString(sel.X), lockMethods[sel.Sel.Name]
		if !released[lockee+"."+want] {
			w.Reportf(call.Pos(), "%s.%s() without a matching %s in the same function; defer %s.%s() after locking", lockee, sel.Sel.Name, want, lockee, want)
		}
	}
}
