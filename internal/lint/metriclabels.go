package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// MetricLabels keeps metric/figure names closed over a single registry:
// any metrics.Figure built with a literal ID must use a name declared as
// an exported string constant in the metrics package itself. Free-form
// names fork the result namespace — two experiments writing "fig3_top"
// and "fig3-top" silently stop being comparable.
func MetricLabels() *Analyzer {
	return &Analyzer{
		Name: "metric-label-consistency",
		Doc: "metrics.Figure literals must take their ID from the exported string-constant " +
			"registry in internal/metrics (the Fig* names); ad-hoc literal IDs fork the " +
			"result namespace.",
		Run: runMetricLabels,
	}
}

func runMetricLabels(w *WholePass) {
	for _, pkg := range w.Scoped() {
		for _, f := range pkg.Files {
			checkFigureIDs(w, pkg, f)
		}
	}
}

// checkFigureIDs flags literal figure IDs outside the registry.
func checkFigureIDs(w *WholePass, u *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, isLit := n.(*ast.CompositeLit)
		if !isLit {
			return true
		}
		named := namedFigureType(u.TypeOf(lit))
		if named == nil {
			return true
		}
		registry := stringConsts(named.Obj().Pkg())
		if len(registry) == 0 {
			return true
		}
		for _, elt := range lit.Elts {
			kv, isKV := elt.(*ast.KeyValueExpr)
			if !isKV {
				continue
			}
			key, isID := kv.Key.(*ast.Ident)
			if !isID || key.Name != "ID" {
				continue
			}
			basic, isBasic := kv.Value.(*ast.BasicLit)
			if !isBasic {
				continue // constants and variables resolve to the registry by construction
			}
			val, err := strconv.Unquote(basic.Value)
			if err != nil {
				continue
			}
			if _, ok := registry[val]; !ok {
				w.Reportf(basic.Pos(), "figure ID %q is not declared in the %s registry; add a constant there or use one of: %s",
					val, named.Obj().Pkg().Name(), strings.Join(registryNames(registry), ", "))
			}
		}
		return true
	})
}

// namedFigureType unwraps pointers and reports the named type when it is
// a Figure declared in a metrics package.
func namedFigureType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Figure" || obj.Pkg() == nil || obj.Pkg().Name() != "metrics" {
		return nil
	}
	return named
}

// stringConsts collects the exported string constants of a package:
// value → constant name.
func stringConsts(pkg *types.Package) map[string]string {
	out := map[string]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, isConst := scope.Lookup(name).(*types.Const)
		if !isConst || !c.Exported() || c.Val().Kind() != constant.String {
			continue
		}
		out[constant.StringVal(c.Val())] = name
	}
	return out
}

func registryNames(registry map[string]string) []string {
	names := make([]string, 0, len(registry))
	for _, name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
