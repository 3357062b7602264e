package lint

import (
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rule string // rule name or "all"
	pos  token.Position
	used bool
}

// ignoreSet holds the directives of one load keyed by file name.
type ignoreSet map[string][]*ignoreDirective

const ignorePrefix = "//lint:ignore"

// collectIgnores parses every //lint:ignore directive in the packages.
// Malformed directives (missing rule or reason) are themselves reported
// through report so suppressions always carry a rationale.
func collectIgnores(pkgs []*Package, report func(rule string, pos token.Pos, format string, args ...any)) ignoreSet {
	set := ignoreSet{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
					switch {
					case len(fields) == 0:
						report("lint-directive", c.Pos(), "lint:ignore needs a rule name and a reason")
					case fields[0] != "all" && AnalyzerByName(fields[0]) == nil:
						report("lint-directive", c.Pos(), "lint:ignore names unknown rule %q", fields[0])
					case len(fields) < 2:
						report("lint-directive", c.Pos(), "lint:ignore %s needs a reason", fields[0])
					default:
						pos := pkg.Fset.Position(c.Pos())
						set[pos.Filename] = append(set[pos.Filename], &ignoreDirective{rule: fields[0], pos: pos})
					}
				}
			}
		}
	}
	return set
}

// suppressed reports whether a diagnostic for rule at pos is covered by
// a directive on the same line or the line above, and marks it used.
func (s ignoreSet) suppressed(rule string, pos token.Position) bool {
	for _, d := range s[pos.Filename] {
		if d.rule != rule && d.rule != "all" {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			d.used = true
			return true
		}
	}
	return false
}

// unused returns directives that suppressed nothing, so stale ignores
// are cleaned up rather than rotting.
func (s ignoreSet) unused() []*ignoreDirective {
	var out []*ignoreDirective
	for _, ds := range s {
		for _, d := range ds {
			if !d.used {
				out = append(out, d)
			}
		}
	}
	return out
}
