package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"pdspbench/internal/lint/flow"
)

// CtxPropagation enforces end-to-end cancellation across the fabric: a
// campaign the dispatcher abandons, a worker daemon the operator stops,
// or an HTTP client that disconnects must be able to interrupt every
// blocking operation its request started, no matter how deep in the
// call chain.
func CtxPropagation() *Analyzer {
	return &Analyzer{
		Name: "ctx-propagation",
		Doc: "Functions reachable from fabric entry points (HTTP handlers, queue.Worker " +
			"methods, CLI commands) that block — channel operations, time.Sleep, net/http " +
			"requests — must accept a context.Context, and context.Background()/TODO() may " +
			"not be introduced below the entry layer: both sever the cancellation chain.",
		Dirs: []string{"internal/queue", "internal/server", "internal/storage", "internal/storm", "cmd"},
		Run:  runCtxPropagation,
	}
}

func runCtxPropagation(w *WholePass) {
	prog := w.Program
	entries, cliEntries := ctxEntryPoints(prog)
	if len(entries) == 0 {
		return
	}
	reach := prog.Reachable(entries)
	blocking := prog.Blocking()
	entrySet := make(map[*flow.Func]bool, len(entries))
	for _, fn := range entries {
		entrySet[fn] = true
	}
	for _, fn := range prog.All() {
		if !reach[fn] {
			continue
		}
		if !entrySet[fn] && !fn.HasCtx {
			if b := blocking[fn]; b != nil {
				w.Reportf(fn.Decl.Name.Pos(),
					"%s is reachable from a fabric entry point and blocks (%s) but accepts no context.Context; thread ctx through so cancellation reaches it",
					fn.Name(), b.Describe(w.Fset()))
			}
		}
		// The entry layer is where contexts are born: main-package
		// commands get signal.NotifyContext, handlers get r.Context().
		// Below it, a fresh root context detaches the work from its
		// caller's lifetime.
		if cliEntries[fn] {
			continue
		}
		for _, call := range contextRootCalls(fn) {
			w.Reportf(call.pos,
				"context.%s() below the fabric entry layer severs the cancellation chain; derive from the caller's ctx (or context.WithoutCancel for intentional detachment)",
				call.name)
		}
	}
}

// ctxEntryPoints returns the reachability roots: every top-level
// function of a main package (the CLI command layer), every func with
// the net/http handler signature, and every method on a type named
// Worker in a package named queue (the daemon surface). cliEntries marks
// the subset additionally licensed to mint root contexts.
func ctxEntryPoints(prog *flow.Program) (roots []*flow.Func, cliEntries map[*flow.Func]bool) {
	cliEntries = make(map[*flow.Func]bool)
	for _, fn := range prog.All() {
		switch {
		case fn.Unit.Types != nil && fn.Unit.Types.Name() == "main":
			roots = append(roots, fn)
			cliEntries[fn] = true
		case isHTTPHandler(fn.Obj):
			roots = append(roots, fn)
		case isWorkerMethod(fn.Obj):
			roots = append(roots, fn)
		}
	}
	return roots, cliEntries
}

// isHTTPHandler matches the net/http handler shape: parameters
// (http.ResponseWriter, *http.Request).
func isHTTPHandler(obj *types.Func) bool {
	sig, isSig := obj.Type().(*types.Signature)
	if !isSig || sig.Params().Len() != 2 {
		return false
	}
	first, isNamed := sig.Params().At(0).Type().(*types.Named)
	if !isNamed || !isNetHTTP(first.Obj().Pkg()) || first.Obj().Name() != "ResponseWriter" {
		return false
	}
	ptr, isPtr := sig.Params().At(1).Type().(*types.Pointer)
	if !isPtr {
		return false
	}
	second, isNamed := ptr.Elem().(*types.Named)
	return isNamed && isNetHTTP(second.Obj().Pkg()) && second.Obj().Name() == "Request"
}

func isNetHTTP(pkg *types.Package) bool {
	return pkg != nil && pkg.Path() == "net/http"
}

// isWorkerMethod matches the fabric daemon's surface: exported methods
// of a type named Worker declared in a package named queue. Unexported
// Worker helpers sit below the entry layer and must thread ctx.
func isWorkerMethod(obj *types.Func) bool {
	if !obj.Exported() {
		return false
	}
	named := flow.NamedRecv(obj)
	return named != nil && named.Obj().Name() == "Worker" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "queue"
}

type ctxRootCall struct {
	pos  token.Pos
	name string // "Background" or "TODO"
}

// contextRootCalls lists context.Background()/context.TODO() calls in
// fn's body (closures included).
func contextRootCalls(fn *flow.Func) []ctxRootCall {
	var out []ctxRootCall
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		obj := flow.CalleeOf(fn.Unit, call)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if obj.Name() == "Background" || obj.Name() == "TODO" {
			out = append(out, ctxRootCall{pos: call.Pos(), name: obj.Name()})
		}
		return true
	})
	return out
}
