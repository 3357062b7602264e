package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time package entry points that read the host
// clock or real timers; simulation code must use the des virtual clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandAllowed are math/rand package functions that construct
// explicit generators rather than touching the shared global source.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// SimDeterminism forbids wall-clock reads, global math/rand use, and map
// iteration order leaking into returned slices inside the simulation
// packages. A discrete-event simulation that consults the host clock or
// an unseeded shared RNG produces different results per run, and a map
// range feeding a returned slice reorders results nondeterministically —
// both break PDSP-Bench's reproducible performance shapes.
func SimDeterminism() *Analyzer {
	return &Analyzer{
		Name: "sim-determinism",
		Doc: "Simulation code (internal/des, internal/simengine, internal/workload, internal/stream) " +
			"must be deterministic: no time.Now/time.Since or other wall-clock reads (use the virtual " +
			"des clock), no global math/rand functions (inject a seeded *rand.Rand), and no " +
			"range-over-map feeding a returned slice (sort before returning). internal/stream is in " +
			"scope because its generators — including the disordered-delivery wrapper — must replay " +
			"identically from a seed for the parity suite and checkpoint resume to hold.",
		Dirs: []string{"internal/des", "internal/simengine", "internal/workload", "internal/stream"},
		Run:  runSimDeterminism,
	}
}

func runSimDeterminism(w *WholePass) {
	for _, pkg := range w.Scoped() {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				pkgPath, name, ok := pkgFuncCall(pkg, call)
				switch {
				case !ok:
				case pkgPath == "time" && wallClockFuncs[name]:
					w.Reportf(call.Pos(), "wall-clock time.%s in simulation code; use the virtual des clock", name)
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !globalRandAllowed[name]:
					w.Reportf(call.Pos(), "global rand.%s uses the shared random source; inject a seeded *rand.Rand", name)
				}
				return true
			})
			walkFunctions(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
				checkMapRangeReturns(w, pkg, body)
			})
		}
	}
}

// checkMapRangeReturns flags `for k := range m { s = append(s, ...) }`
// when s is later returned by the same function without being sorted.
func checkMapRangeReturns(w *WholePass, u *Package, body *ast.BlockStmt) {
	// Objects appended to inside a map range, keyed by variable object.
	appended := map[types.Object]*ast.RangeStmt{}
	inspectShallow(body, func(n ast.Node) bool {
		rng, isRange := n.(*ast.RangeStmt)
		if !isRange {
			return true
		}
		t := u.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		inspectShallow(rng.Body, func(m ast.Node) bool {
			asg, isAsg := m.(*ast.AssignStmt)
			if !isAsg || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				return true
			}
			lhs, isID := asg.Lhs[0].(*ast.Ident)
			if !isID {
				return true
			}
			call, isCall := asg.Rhs[0].(*ast.CallExpr)
			if !isCall || !isBuiltinCall(u, call, "append") {
				return true
			}
			if obj := u.ObjectOf(lhs); obj != nil {
				if _, dup := appended[obj]; !dup {
					appended[obj] = rng
				}
			}
			return true
		})
		return true
	})
	if len(appended) == 0 {
		return
	}
	returned := map[types.Object]bool{}
	sorted := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if id, isID := res.(*ast.Ident); isID {
					if obj := u.ObjectOf(id); obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			pkgPath, _, ok := pkgFuncCall(u, s)
			if !ok || (pkgPath != "sort" && pkgPath != "slices") {
				return true
			}
			for _, arg := range s.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, isID := a.(*ast.Ident); isID {
						if obj := u.ObjectOf(id); obj != nil {
							sorted[obj] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	for obj, rng := range appended {
		if returned[obj] && !sorted[obj] {
			w.Reportf(rng.Pos(), "range over map feeds returned slice %q; map iteration order is nondeterministic — sort before returning", obj.Name())
		}
	}
}
