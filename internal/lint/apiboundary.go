package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// A boundary forbids packages under from to import forbid directly;
// via names the sanctioned mediator, quoted in the diagnostic.
type boundary struct{ from, forbid, via string }

// boundaries are the architectural constraints, mirroring the paper's
// WUI → controller → SUT layering: the HTTP layer and the benchmark
// controller never touch an execution engine directly — all runs flow
// through the internal/backend protocol, and the server talks to
// backends only via the controller.
var boundaries = []boundary{
	{"internal/server", "internal/engine", "internal/controller"},
	{"internal/server", "internal/simengine", "internal/controller"},
	{"internal/controller", "internal/engine", "internal/backend"},
	{"internal/controller", "internal/simengine", "internal/backend"},
	{"cmd/pdspbench", "internal/engine", "internal/backend"},
	{"cmd/pdspbench", "internal/simengine", "internal/backend"},
}

// dualImports pin the one-bridge invariant of the execution layer: the
// real engine and the simulator are two backends behind one run
// protocol, so no package outside allow may import both a and b.
// Everything else picks a side or stays above the protocol.
var dualImports = []struct {
	a, b  string
	allow []string
}{
	{"internal/engine", "internal/simengine", []string{"internal/backend"}},
}

// restrictedImports fence off the campaign fabric: only packages under
// allow may import pkg. The queue's lease ledger is dispatcher-private
// state, so only the dispatcher (internal/server), the campaign layer
// (internal/controller) and the CLI may import it. An engine or backend
// reaching into the queue would invert the fabric's layering — workers
// talk to the dispatcher over HTTP, never to the ledger directly.
var restrictedImports = []struct {
	pkg   string
	allow []string
}{
	{"internal/queue", []string{"internal/queue", "internal/server", "internal/controller", "cmd/pdspbench"}},
}

// APIBoundary enforces layered imports: packages under a constrained
// directory may not import a forbidden package directly and must go
// through the sanctioned mediator; no package outside the allowed
// bridge may import both sides of a dual-import constraint; and a
// fenced package may be imported only from its allow list.
func APIBoundary() *Analyzer {
	return &Analyzer{
		Name: "api-boundary",
		Doc: "internal/server, internal/controller, and cmd/pdspbench must not import " +
			"internal/engine or internal/simengine directly; execution goes through " +
			"internal/backend, and only internal/backend may import both engines. " +
			"internal/queue may be imported only by the dispatcher (internal/server), " +
			"internal/controller, and cmd/pdspbench.",
		Run: runAPIBoundary,
	}
}

type moduleImport struct {
	rel  string // module-relative directory of the imported package
	spec *ast.ImportSpec
}

func runAPIBoundary(w *WholePass) {
	for _, pkg := range w.Scoped() {
		module := modulePathOf(pkg)
		var imps []moduleImport
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				if rel, ok := relImport(spec, module); ok {
					imps = append(imps, moduleImport{rel, spec})
				}
			}
		}
		for _, b := range boundaries {
			if !dirHasPrefix(pkg.Dir, b.from) {
				continue
			}
			for _, imp := range imps {
				if dirHasPrefix(imp.rel, b.forbid) {
					w.Reportf(imp.spec.Pos(), "%s must not import %s directly; go through %s", b.from, b.forbid, b.via)
				}
			}
		}
		for _, di := range dualImports {
			if underAny(pkg.Dir, di.allow) {
				continue
			}
			// The diagnostic lands on the B-side import: with A
			// established elsewhere in the package, that import is the
			// one that closes the forbidden pair.
			var fromA, fromB *ast.ImportSpec
			for _, imp := range imps {
				if fromA == nil && dirHasPrefix(imp.rel, di.a) {
					fromA = imp.spec
				}
				if fromB == nil && dirHasPrefix(imp.rel, di.b) {
					fromB = imp.spec
				}
			}
			if fromA != nil && fromB != nil {
				w.Reportf(fromB.Pos(), "%s imports both %s and %s; only %v may bridge them", pkg.Dir, di.a, di.b, di.allow)
			}
		}
		for _, ri := range restrictedImports {
			if underAny(pkg.Dir, ri.allow) {
				continue
			}
			for _, imp := range imps {
				if dirHasPrefix(imp.rel, ri.pkg) {
					w.Reportf(imp.spec.Pos(), "%s may be imported only by %v; %s is outside the fence", ri.pkg, ri.allow, pkg.Dir)
				}
			}
		}
	}
}

// relImport resolves an import spec to its module-relative directory.
func relImport(imp *ast.ImportSpec, module string) (string, bool) {
	path, err := strconv.Unquote(imp.Path.Value)
	if err != nil {
		return "", false
	}
	if path == module {
		return ".", true
	}
	rel, ok := strings.CutPrefix(path, module+"/")
	return rel, ok && rel != ""
}
