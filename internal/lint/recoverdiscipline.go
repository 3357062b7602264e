package lint

import (
	"go/ast"
	"regexp"
)

// faultRouteName matches identifiers that plausibly route a recovered
// panic into the typed-error machinery: constructing a *CrashError or
// *chaos.FaultError, or calling a recorder like recordUDOPanic.
var faultRouteName = regexp.MustCompile(`Error|Fault|Crash|Panic`)

// RecoverDiscipline enforces the fault-layer contract on recover():
// data-plane and supervisor code may intercept a panic only to turn it
// into a typed error (or re-panic). A recover() whose result is
// discarded swallows crashes silently — an injected operator kill, or a
// real bug, would vanish instead of surfacing as a *chaos.FaultError in
// the run record. See DESIGN.md "Fault injection & recovery".
func RecoverDiscipline() *Analyzer {
	return &Analyzer{
		Name: "recover-discipline",
		Doc: "recover() in execution-layer code must not swallow panics: its result must be " +
			"used, and the recovering function must either re-panic or route the value into a " +
			"typed error (construct or call something matching Error|Fault|Crash|Panic). Bare " +
			"`recover()` statements and recoveries with no error path are reported.",
		Dirs: []string{
			"internal/engine", "internal/simengine", "internal/des",
			"internal/backend", "internal/chaos",
		},
		Run: runRecoverDiscipline,
	}
}

func runRecoverDiscipline(w *WholePass) {
	for _, pkg := range w.Scoped() {
		for _, f := range pkg.Files {
			walkFunctions(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
				checkRecovers(w, pkg, body)
			})
		}
	}
}

// checkRecovers inspects one function body (not nested literals — each
// literal is its own recovery scope) for recover() misuse.
func checkRecovers(w *WholePass, u *Package, body *ast.BlockStmt) {
	var recovers []*ast.CallExpr
	discarded := map[*ast.CallExpr]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, isCall := s.X.(*ast.CallExpr); isCall && isBuiltinCall(u, call, "recover") {
				discarded[call] = true
			}
		case *ast.AssignStmt:
			// `_ = recover()` discards the value just as silently.
			for i, rhs := range s.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if !isCall || !isBuiltinCall(u, call, "recover") || i >= len(s.Lhs) {
					continue
				}
				if id, isID := s.Lhs[i].(*ast.Ident); isID && id.Name == "_" {
					discarded[call] = true
				}
			}
		case *ast.CallExpr:
			if isBuiltinCall(u, s, "recover") {
				recovers = append(recovers, s)
			}
		}
		return true
	})
	if len(recovers) == 0 {
		return
	}
	for _, call := range recovers {
		if discarded[call] {
			w.Reportf(call.Pos(), "recover() result discarded; a swallowed panic hides crashes — re-panic or wrap it in a typed error")
		}
	}
	if len(discarded) == len(recovers) {
		return
	}
	if !hasFaultRoute(u, body) {
		w.Reportf(recovers[0].Pos(), "recover() without an error path; the recovering function must re-panic or route the value into a typed error (Error/Fault/Crash/Panic)")
	}
}

// hasFaultRoute reports whether the function body re-panics or touches
// the typed-error machinery: a panic() call, a call to a function whose
// name matches the fault-route pattern, or a composite literal of such
// a type.
func hasFaultRoute(u *Package, body *ast.BlockStmt) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(u, s, "panic") {
				found = true
				return false
			}
			switch fun := s.Fun.(type) {
			case *ast.Ident:
				if faultRouteName.MatchString(fun.Name) {
					found = true
				}
			case *ast.SelectorExpr:
				if faultRouteName.MatchString(fun.Sel.Name) {
					found = true
				}
			}
		case *ast.CompositeLit:
			switch t := s.Type.(type) {
			case *ast.Ident:
				if faultRouteName.MatchString(t.Name) {
					found = true
				}
			case *ast.SelectorExpr:
				if faultRouteName.MatchString(t.Sel.Name) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
