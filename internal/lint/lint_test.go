package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// realLayoutFixtures name the rules whose fixture trees mirror the
// repo's own directory names (internal/server, cmd/pdspbench, …), so
// they are checked against the rule's own scope and tables. Every other
// rule's scope is widened to its whole fixture tree.
var realLayoutFixtures = map[string]bool{"api-boundary": true, "hotpath-alloc": true}

// foldedFixtures name the fixture trees of rules that were folded into
// another rule, mapped to the rule that now owns their invariant. Each
// such tree keeps its own subtest, run by the owning rule, so the half
// of a merged rule that it covers is still checked on its own.
var foldedFixtures = map[string]string{
	"goroutine-hygiene": "chan-discipline",
	"lock-discipline":   "lock-order",
}

// TestFixtures runs each analyzer over testdata/src/<rule>/ (and over
// the trees of rules folded into it) and checks its diagnostics against
// the `// want` expectations in both directions: every expectation must
// be hit, every diagnostic expected. A fixture tree that names neither a
// rule nor a folded rule fails the test, so a tree left behind by a
// renamed or merged rule cannot silently stop being checked.
func TestFixtures(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if AnalyzerByName(e.Name()) == nil && foldedFixtures[e.Name()] == "" {
			t.Errorf("testdata/src/%s names no rule; move its fixtures under the rule that owns them", e.Name())
		}
	}
	trees := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		trees[a.Name] = a
	}
	for tree, owner := range foldedFixtures {
		a := AnalyzerByName(owner)
		if a == nil {
			t.Fatalf("fixture tree %s is folded into %s, which is no rule", tree, owner)
		}
		trees[tree] = a
	}
	names := make([]string, 0, len(trees))
	for name := range trees {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := trees[name]
		t.Run(name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", name)
			if _, err := os.Stat(root); err != nil {
				t.Fatalf("no fixture tree %s for rule %s: %v", name, a.Name, err)
			}
			absRoot, err := filepath.Abs(root)
			if err != nil {
				t.Fatal(err)
			}
			loader := &Loader{Root: absRoot, ModulePath: "fixture"}
			pkgs, err := loader.Load("./...")
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("fixture tree %s loaded no packages", root)
			}
			for _, pkg := range pkgs {
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixture %s does not type-check: %v", pkg.Path, terr)
				}
			}
			rule := *a
			if !realLayoutFixtures[a.Name] {
				rule.Dirs = nil
			}
			runner := &Runner{Analyzers: []*Analyzer{&rule}}
			checkExpectations(t, absRoot, runner.Run(pkgs))
		})
	}
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	re  *regexp.Regexp
	hit bool
}

// checkExpectations cross-checks diagnostics against `// want` comments
// under root.
func checkExpectations(t *testing.T, root string, diags []Diagnostic) {
	t.Helper()
	expects := map[string]*expectation{} // "file:line" → expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: bad want regexp: %w", path, i+1, err)
			}
			expects[fmt.Sprintf("%s:%d", path, i+1)] = &expectation{re: re}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		exp := expects[key]
		if exp == nil {
			t.Errorf("unexpected diagnostic at %s: %s: %s", key, d.Rule, d.Message)
			continue
		}
		if !exp.re.MatchString(d.Message) {
			t.Errorf("diagnostic at %s does not match want %q: got %q", key, exp.re, d.Message)
			continue
		}
		exp.hit = true
	}
	for key, exp := range expects {
		if !exp.hit {
			t.Errorf("expected diagnostic at %s matching %q; got none", key, exp.re)
		}
	}
}

// parsePkg builds a Package from in-memory sources (no type info), for
// directive-level tests that need no type checking.
func parsePkg(t *testing.T, srcs ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg := &Package{Path: "inmem", Dir: "inmem", Fset: fset}
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, fmt.Sprintf("inmem%d.go", i), src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg
}

// TestIgnoreDirectives covers the suppression grammar: a rule and a
// reason are mandatory, unknown rules are rejected, and stale
// directives are reported when requested.
func TestIgnoreDirectives(t *testing.T) {
	pkg := parsePkg(t, `package inmem

//lint:ignore
func a() {}

//lint:ignore error-discipline
func b() {}

//lint:ignore no-such-rule because reasons
func c() {}

//lint:ignore error-discipline kept for a documented reason
func d() {}
`)
	runner := &Runner{Analyzers: []*Analyzer{}, ReportUnusedIgnores: true}
	diags := runner.Run([]*Package{pkg})
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"needs a rule name and a reason",
		"needs a reason",
		"unknown rule",
		"suppresses nothing",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("directive diagnostics missing %q; got:\n%s", want, joined)
		}
	}
	if len(diags) != 4 {
		t.Errorf("want 4 directive diagnostics, got %d:\n%s", len(diags), joined)
	}
}

// TestRuleScope covers directory scoping: a rule's Dirs are prefixes
// of whole path segments, and no Dirs means the whole module.
func TestRuleScope(t *testing.T) {
	scoped := &Analyzer{Name: "sim-determinism", Dirs: []string{"internal/des"}}
	global := &Analyzer{Name: "error-discipline"}
	cases := []struct {
		name string
		a    *Analyzer
		dir  string
		want bool
	}{
		{"scope hit", scoped, "internal/des", true},
		{"scope subdir", scoped, "internal/des/sub", true},
		{"scope miss", scoped, "internal/designer", false},
		{"scope parent", scoped, "internal", false},
		{"whole module", global, "anywhere", true},
		{"whole module root", global, ".", true},
	}
	for _, tc := range cases {
		if got := tc.a.Applies(tc.dir); got != tc.want {
			t.Errorf("%s: Applies(%s, %q) = %v, want %v", tc.name, tc.a.Name, tc.dir, got, tc.want)
		}
	}
}

// TestRepoIsClean runs the full rule set over this module, making the
// tree's lint cleanliness a tier-1 test property: `go test ./...` fails
// the moment a PR reintroduces a violation.
func TestRepoIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader := &Loader{Root: root}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{ReportUnusedIgnores: true}
	for _, d := range runner.Run(pkgs) {
		t.Errorf("%s", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
