package lint

import (
	"go/ast"
	"go/types"
)

// fmtPrinting are the fmt entry points whose errors are conventionally
// discarded on printing paths.
var fmtPrinting = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// infallibleWriters are receiver types whose Write-family methods are
// documented never to return a non-nil error (hash.Hash: "It never
// returns an error").
var infallibleWriters = map[string]bool{
	"strings.Builder": true, "bytes.Buffer": true,
	"hash.Hash": true, "hash.Hash32": true, "hash.Hash64": true,
}

// ErrorDiscipline flags call statements that drop an error return on the
// floor. A benchmark that ignores a store append, a simulation error, or
// a server shutdown failure reports numbers for a run that did not do
// what the operator asked. Tests are not loaded, package main is exempt
// (CLI printing paths), as are fmt printing functions and writers that
// cannot fail (strings.Builder, bytes.Buffer). Deferred calls are
// likewise exempt (defer f.Close() idiom).
func ErrorDiscipline() *Analyzer {
	return &Analyzer{
		Name: "error-discipline",
		Doc: "No call statement may silently discard an error result outside tests and " +
			"package main; handle it, return it, or assign it explicitly (`_ = ...`) with a " +
			"comment saying why.",
		Run: runErrorDiscipline,
	}
}

func runErrorDiscipline(w *WholePass) {
	for _, pkg := range w.Scoped() {
		if pkg.Types != nil && pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if stmt, isExpr := n.(*ast.ExprStmt); isExpr {
					if call, isCall := stmt.X.(*ast.CallExpr); isCall {
						if name := discardedError(pkg, call); name != "" {
							w.Reportf(call.Pos(), "result of %s includes an error that is silently discarded; handle it or assign it explicitly", name)
						}
					}
				}
				return true
			})
		}
	}
}

// discardedError reports the callee name when the call returns an error
// that the statement drops, or "" when the call is exempt or error-free.
func discardedError(u *Package, call *ast.CallExpr) string {
	t := u.TypeOf(call)
	if t == nil || !resultHasError(t) {
		return ""
	}
	if pkgPath, name, ok := pkgFuncCall(u, call); ok {
		if pkgPath == "fmt" && fmtPrinting[name] {
			return ""
		}
		return pkgPath + "." + name
	}
	if _, pkgPath, typeName, method, ok := methodCallOn(u, call); ok {
		qualified := pkgPath + "." + typeName
		if infallibleWriters[qualified] {
			return ""
		}
		return qualified + "." + method
	}
	return types.ExprString(call.Fun)
}

// resultHasError reports whether a call result type includes error.
func resultHasError(t types.Type) bool {
	if tuple, isTuple := t.(*types.Tuple); isTuple {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
