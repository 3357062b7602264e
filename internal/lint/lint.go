// Package lint is pdsplint's analysis framework: a stdlib-only
// (go/ast, go/parser, go/token, go/types) static-analysis harness whose
// rules all run over one whole-program pass, each scoped to the
// directories it guards, with //lint:ignore suppression.
//
// The rules it ships exist to machine-check the properties PDSP-Bench's
// reproducibility story depends on: the discrete-event simulation must
// stay deterministic (virtual clock, injected seeded randomness, no map
// iteration order leaking into results), the goroutine dataflow engine
// must stay leak- and race-free, and benchmark plumbing must not drop
// errors or invent metric names. See DESIGN.md "Static guarantees".
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"pdspbench/internal/lint/flow"
)

// Diagnostic is one finding, addressed by position so callers can print
// file:line:col output and tests can match expectations.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one loaded, type-checked package.
type Package = flow.Unit

// WholePass is the invocation context of one rule: every loaded package
// plus the shared flow.Program (call graph + fact store), built once per
// Runner.Run and shared by all rules.
type WholePass struct {
	// Pkgs are all loaded packages, in dependency order.
	Pkgs []*Package
	// Program is the shared call graph over Pkgs.
	Program *flow.Program

	analyzer  *Analyzer
	fset      *token.FileSet
	pkgByFile map[string]*Package
	report    func(rule string, pos token.Pos, format string, args ...any)
}

// Fset positions the whole program (all packages come from one Loader,
// hence one FileSet).
func (w *WholePass) Fset() *token.FileSet { return w.fset }

// InScope reports whether pkg lies inside the rule's directory scope.
func (w *WholePass) InScope(pkg *Package) bool { return w.analyzer.Applies(pkg.Dir) }

// Scoped returns the loaded packages inside the rule's directory scope:
// the ones a package-local check needs to walk.
func (w *WholePass) Scoped() []*Package {
	var out []*Package
	for _, pkg := range w.Pkgs {
		if w.InScope(pkg) {
			out = append(out, pkg)
		}
	}
	return out
}

// Reportf records a diagnostic. Findings whose position falls outside
// the rule's directory scope are dropped, so a rule may analyse the
// whole program while reporting only inside its scope.
func (w *WholePass) Reportf(pos token.Pos, format string, args ...any) {
	pkg := w.pkgByFile[w.fset.Position(pos).Filename]
	if pkg == nil || !w.InScope(pkg) {
		return
	}
	w.report(w.analyzer.Name, pos, format, args...)
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and //lint:ignore
	// directives (kebab-case).
	Name string
	// Doc is a one-paragraph description shown by `pdsplint -list`.
	Doc string
	// Dirs restricts where the rule reports to packages whose Dir has
	// one of these slash-separated prefixes; nil means the whole module.
	Dirs []string
	// Run inspects the loaded program and reports diagnostics.
	Run func(*WholePass)
}

// Applies reports whether the rule's scope covers a package in dir
// (module-relative, slash-separated).
func (a *Analyzer) Applies(dir string) bool {
	return len(a.Dirs) == 0 || underAny(dir, a.Dirs)
}

// underAny reports whether dir lies under one of the prefixes.
func underAny(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if dirHasPrefix(dir, p) {
			return true
		}
	}
	return false
}

// dirHasPrefix reports whether dir equals prefix or is beneath it.
func dirHasPrefix(dir, prefix string) bool {
	return dir == prefix || strings.HasPrefix(dir, prefix+"/")
}

// Analyzers returns the full rule set in stable order.
func Analyzers() []*Analyzer {
	as := []*Analyzer{
		SimDeterminism(),
		ErrorDiscipline(),
		MetricLabels(),
		APIBoundary(),
		HotPathAlloc(),
		RecoverDiscipline(),
		CtxPropagation(),
		LockOrder(),
		LeaseLinearity(),
		ChanDiscipline(),
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// AnalyzerByName returns the named rule, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
