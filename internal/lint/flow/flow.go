// Package flow is pdsplint's whole-program layer: it folds every
// type-checked package of one load into a single static call graph with
// a per-function fact store, so cross-package rules (context
// propagation, lock ordering) share one traversal of the typed AST
// instead of re-walking it per rule.
//
// The graph is deliberately conservative and cheap:
//
//   - Nodes are declared functions and methods with bodies. Function
//     literals are folded into their enclosing declaration — a blocking
//     operation inside a closure (including a launched goroutine) counts
//     against the function that owns the closure, because that is the
//     frame a cancellation signal must reach.
//   - Edges are static calls only: direct package-level calls and method
//     calls whose callee the type checker resolves to a concrete
//     *types.Func declared in the program. Interface dispatch and calls
//     through function values produce no edge; analyses built on the
//     graph are therefore may-miss, never may-crash.
//   - Facts are memoised per program. Program.Memo gives each analyzer a
//     compute-once slot (e.g. the transitive blocking classification) so
//     every rule in one Runner invocation pays for one fixpoint.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Unit is one loaded, type-checked package. The lint package uses it
// as its Package type, so the flow layer needs no import of lint.
type Unit struct {
	// Path is the import path, Dir the module-relative directory (forward
	// slashes; rule scopes match against it).
	Path string
	Dir  string
	// Fset positions all Files; one load shares one FileSet.
	Fset *token.FileSet
	// Files are the parsed non-test sources of the package.
	Files []*ast.File
	// Types and Info come from the shared type-check pass; either may be
	// nil for damaged packages, and the graph degrades to fewer edges.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check problems; rules still run
	// because most checks are syntactic, but the CLI reports them.
	TypeErrors []error
}

// TypeOf returns the type of e under this unit's type information, or
// nil when absent.
func (u *Unit) TypeOf(e ast.Expr) types.Type {
	if u.Info == nil {
		return nil
	}
	return u.Info.TypeOf(e)
}

// ObjectOf resolves an identifier, or nil.
func (u *Unit) ObjectOf(id *ast.Ident) types.Object {
	if u.Info == nil {
		return nil
	}
	return u.Info.ObjectOf(id)
}

// Blocker is one direct blocking operation inside a function body.
type Blocker struct {
	Pos  token.Pos
	What string // e.g. "channel receive", "time.Sleep"
}

// Func is one call-graph node: a declared function or method with a
// body, literals folded in.
type Func struct {
	// Obj is the type checker's object for the declaration.
	Obj *types.Func
	// Decl is the syntax; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// Unit is the package the function is declared in.
	Unit *Unit
	// HasCtx reports whether some parameter's type is context.Context.
	HasCtx bool
	// Blockers lists the function's own blocking operations, in source
	// order (channel send/receive/select, time.Sleep, net/http requests,
	// sync.WaitGroup.Wait — the operations a cancellation signal must be
	// able to interrupt).
	Blockers []Blocker
	// Calls are the statically resolved callees declared in the program,
	// deduplicated in first-call order.
	Calls []*Func
	// Callers is the reverse adjacency, in deterministic order.
	Callers []*Func

	callSites map[*Func]token.Pos
}

// Name renders a diagnostic-friendly qualified name, e.g.
// "pdspbench/internal/queue.(*Queue).Complete".
func (f *Func) Name() string {
	if f.Obj == nil {
		return f.Decl.Name.Name
	}
	if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("%s.(%s).%s", f.Obj.Pkg().Path(), typeShort(recv.Type()), f.Obj.Name())
	}
	return f.Obj.Pkg().Path() + "." + f.Obj.Name()
}

// CallSite returns the first position where f calls callee.
func (f *Func) CallSite(callee *Func) token.Pos {
	return f.callSites[callee]
}

func typeShort(t types.Type) string {
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	if n, isNamed := t.(*types.Named); isNamed {
		return ptr + n.Obj().Name()
	}
	return ptr + t.String()
}

// Program is the whole-program view over one load.
type Program struct {
	funcs  map[*types.Func]*Func
	sorted []*Func // declaration order across units
	memo   map[string]any
}

// Build constructs the call graph over the units. It never fails:
// type-check holes simply drop facts or edges.
func Build(units []*Unit) *Program {
	p := &Program{
		funcs: make(map[*types.Func]*Func),
		memo:  make(map[string]any),
	}
	// Pass 1: nodes.
	for _, u := range units {
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				if !isFunc || fd.Body == nil || u.Info == nil {
					continue
				}
				obj, isObj := u.Info.Defs[fd.Name].(*types.Func)
				if !isObj {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Unit: u, callSites: map[*Func]token.Pos{}}
				fn.HasCtx = hasCtxParam(obj)
				p.funcs[obj] = fn
				p.sorted = append(p.sorted, fn)
			}
		}
	}
	// Pass 2: edges and direct blockers.
	for _, fn := range p.sorted {
		p.scanBody(fn)
	}
	for _, fn := range p.sorted {
		for _, callee := range fn.Calls {
			callee.Callers = append(callee.Callers, fn)
		}
	}
	return p
}

// All returns every function in deterministic (declaration) order.
func (p *Program) All() []*Func { return p.sorted }

// FuncOf returns the node for a declaration's object, or nil.
func (p *Program) FuncOf(obj *types.Func) *Func { return p.funcs[obj] }

// Memo returns the cached value for key, computing it once via build.
// Analyzers use it to share whole-program facts (the fact store's
// program-level half).
func (p *Program) Memo(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// Reachable returns the set of functions reachable from roots over
// static call edges, roots included.
func (p *Program) Reachable(roots []*Func) map[*Func]bool {
	seen := make(map[*Func]bool, len(roots))
	queue := append([]*Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if fn == nil || seen[fn] {
			continue
		}
		seen[fn] = true
		queue = append(queue, fn.Calls...)
	}
	return seen
}

// BlockInfo explains why a function is classified as blocking: a direct
// operation, or a static call to a blocking callee.
type BlockInfo struct {
	Direct *Blocker
	Via    *Func // callee that blocks, when Direct is nil
}

// Describe renders the classification for diagnostics.
func (b *BlockInfo) Describe(fset *token.FileSet) string {
	if b.Direct != nil {
		return fmt.Sprintf("%s at line %d", b.Direct.What, fset.Position(b.Direct.Pos).Line)
	}
	return fmt.Sprintf("calls %s, which blocks", b.Via.Name())
}

// Blocking computes the transitive blocking classification: a function
// blocks if it performs a blocking operation or statically calls a
// function that does. Memoised; all analyzers share one fixpoint.
func (p *Program) Blocking() map[*Func]*BlockInfo {
	return p.Memo("flow.blocking", func() any {
		out := make(map[*Func]*BlockInfo)
		var queue []*Func
		for _, fn := range p.sorted {
			if len(fn.Blockers) > 0 {
				out[fn] = &BlockInfo{Direct: &fn.Blockers[0]}
				queue = append(queue, fn)
			}
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, caller := range fn.Callers {
				if out[caller] == nil {
					out[caller] = &BlockInfo{Via: fn}
					queue = append(queue, caller)
				}
			}
		}
		return out
	}).(map[*Func]*BlockInfo)
}

// scanBody folds fn's body (nested literals included) into edges and
// direct blockers.
func (p *Program) scanBody(fn *Func) {
	u := fn.Unit
	addCall := func(obj *types.Func, pos token.Pos) {
		callee, known := p.funcs[obj]
		if !known {
			return
		}
		if _, dup := fn.callSites[callee]; !dup {
			fn.callSites[callee] = pos
			fn.Calls = append(fn.Calls, callee)
		}
	}
	block := func(pos token.Pos, what string) {
		fn.Blockers = append(fn.Blockers, Blocker{Pos: pos, What: what})
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			obj := CalleeOf(u, s)
			if obj == nil {
				return true
			}
			addCall(obj, s.Pos())
			if what := blockingCall(obj); what != "" {
				block(s.Pos(), what)
			}
		case *ast.SendStmt:
			block(s.Pos(), "channel send")
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				block(s.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				block(s.Pos(), "select")
			}
		case *ast.RangeStmt:
			if t := u.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					block(s.Pos(), "range over channel")
				}
			}
		}
		return true
	})
	sort.Slice(fn.Blockers, func(i, j int) bool { return fn.Blockers[i].Pos < fn.Blockers[j].Pos })
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if c, isComm := clause.(*ast.CommClause); isComm && c.Comm == nil {
			return true
		}
	}
	return false
}

// CalleeOf resolves a call expression to the concrete function object it
// invokes, or nil for builtins, conversions, interface dispatch and
// calls through function values.
func CalleeOf(u *Unit, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj, isFunc := u.ObjectOf(id).(*types.Func); isFunc {
		return obj
	}
	return nil
}

// blockingOps classifies well-known stdlib calls that park the calling
// goroutine until an external event. Keys are "pkgpath.Func" for
// package-level functions and "pkgpath.Type.Method" for methods.
var blockingOps = map[string]string{
	"time.Sleep":                        "time.Sleep",
	"net/http.Get":                      "net/http request",
	"net/http.Post":                     "net/http request",
	"net/http.PostForm":                 "net/http request",
	"net/http.Head":                     "net/http request",
	"net/http.Client.Do":                "net/http request",
	"net/http.Client.Get":               "net/http request",
	"net/http.Client.Post":              "net/http request",
	"net/http.Client.PostForm":          "net/http request",
	"net/http.Client.Head":              "net/http request",
	"net/http.Server.Serve":             "http.Server.Serve",
	"net/http.Server.ListenAndServe":    "http.Server.ListenAndServe",
	"net/http.Server.ListenAndServeTLS": "http.Server.ListenAndServeTLS",
	"sync.WaitGroup.Wait":               "sync.WaitGroup.Wait",
	"sync.Cond.Wait":                    "sync.Cond.Wait",
}

func blockingCall(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	sig, isSig := obj.Type().(*types.Signature)
	if !isSig {
		return ""
	}
	key := pkg.Path() + "." + obj.Name()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return ""
		}
		key = pkg.Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	return blockingOps[key]
}

// hasCtxParam reports whether a parameter (not the receiver) has type
// context.Context.
func hasCtxParam(obj *types.Func) bool {
	sig, isSig := obj.Type().(*types.Signature)
	if !isSig {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// NamedRecv returns the receiver's named type (pointers unwrapped) for a
// method object, or nil for plain functions.
func NamedRecv(obj *types.Func) *types.Named {
	sig, isSig := obj.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
