package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Loader parses and type-checks the packages of one module without any
// external tooling: intra-module imports are resolved from the loaded
// set in dependency order, everything else (the stdlib) comes from the
// compiler's export data with a from-source fallback.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// ModulePath overrides the module path from go.mod (used by fixture
	// tests, whose trees carry no go.mod).
	ModulePath string

	fset *token.FileSet
}

// Load expands the patterns (import-path patterns relative to the module
// root: "./...", "./internal/...", or plain directories) and returns the
// matched packages plus every intra-module dependency needed to check
// them, in dependency order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if l.fset == nil {
		l.fset = token.NewFileSet()
	}
	if l.ModulePath == "" {
		mp, err := modulePath(filepath.Join(l.Root, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.ModulePath = mp
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]*Package) // import path → package
	var order []string
	for _, dir := range dirs {
		if err := l.parseDir(dir, parsed, &order); err != nil {
			return nil, err
		}
	}
	// Pull in intra-module dependencies that the patterns missed so the
	// type checker sees complete information.
	for changed := true; changed; {
		changed = false
		for _, path := range append([]string(nil), order...) {
			for _, imp := range imports(parsed[path]) {
				if !strings.HasPrefix(imp, l.ModulePath) {
					continue
				}
				if _, ok := parsed[imp]; ok {
					continue
				}
				dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(imp, l.ModulePath), "/")))
				if err := l.parseDir(dir, parsed, &order); err != nil {
					return nil, err
				}
				changed = true
			}
		}
	}
	sorted, err := topoSort(parsed, order, l.ModulePath)
	if err != nil {
		return nil, err
	}
	l.check(sorted)
	return sorted, nil
}

// expand resolves patterns to package directories (absolute paths).
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// parseDir parses one package directory into the set.
func (l *Loader) parseDir(dir string, parsed map[string]*Package, order *[]string) error {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	path := l.ModulePath
	if rel != "." {
		path += "/" + rel
	}
	if _, ok := parsed[path]; ok {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lint: read %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Dir: rel, Fset: l.fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil
	}
	// Keep only the files of the first package clause seen: a stray file
	// declaring another package would break the type checker.
	base := pkg.Files[0].Name.Name
	var kept []*ast.File
	for _, f := range pkg.Files {
		if f.Name.Name == base {
			kept = append(kept, f)
		}
	}
	pkg.Files = kept
	parsed[path] = pkg
	*order = append(*order, path)
	return nil
}

func imports(p *Package) []string {
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				out = append(out, path)
			}
		}
	}
	return out
}

// topoSort orders packages so every intra-module dependency precedes its
// importers.
func topoSort(parsed map[string]*Package, order []string, modulePath string) ([]*Package, error) {
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(parsed))
	var out []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = grey
		for _, imp := range imports(parsed[path]) {
			if strings.HasPrefix(imp, modulePath) {
				if _, ok := parsed[imp]; ok {
					if err := visit(imp); err != nil {
						return err
					}
				}
			}
		}
		state[path] = black
		out = append(out, parsed[path])
		return nil
	}
	sort.Strings(order)
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moduleImporter resolves intra-module imports from the checked set and
// defers the rest to the gc export-data importer, falling back to
// compiling from source when export data is unavailable.
type moduleImporter struct {
	local  map[string]*types.Package
	gc     types.Importer
	source types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	p, err := m.gc.Import(path)
	if err == nil {
		return p, nil
	}
	return m.source.Import(path)
}

// check type-checks packages in order, recording soft errors.
func (l *Loader) check(pkgs []*Package) {
	imp := &moduleImporter{
		local:  make(map[string]*types.Package, len(pkgs)),
		gc:     importer.Default(),
		source: importer.ForCompiler(l.fset, "source", nil),
	}
	for _, pkg := range pkgs {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			},
		}
		tp, _ := conf.Check(pkg.Path, l.fset, pkg.Files, info)
		pkg.Types = tp
		pkg.Info = info
		if tp != nil {
			imp.local[pkg.Path] = tp
		}
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (set Loader.ModulePath for module-less trees)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
