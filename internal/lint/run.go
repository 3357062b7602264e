package lint

import (
	"fmt"
	"go/token"
	"sort"
	"time"

	"pdspbench/internal/lint/flow"
)

// RuleTiming is one analyzer's wall-clock cost over a Run.
type RuleTiming struct {
	Rule     string
	Duration time.Duration
}

// Runner applies analyzers to loaded packages. Every rule runs over one
// shared flow.Program (call graph + fact store) built from the loaded
// packages' type-check pass.
type Runner struct {
	// Analyzers defaults to Analyzers().
	Analyzers []*Analyzer
	// ReportUnusedIgnores adds a diagnostic for every //lint:ignore that
	// suppressed nothing. Enabled by the CLI (full rule set), disabled by
	// single-rule fixture runs where most directives are out of scope.
	ReportUnusedIgnores bool

	timings map[string]time.Duration
}

// Timings returns per-analyzer wall time for the last Run, sorted by
// descending duration then name. The CLI prints it under -timings and
// embeds it in -json reports.
func (r *Runner) Timings() []RuleTiming {
	out := make([]RuleTiming, 0, len(r.timings))
	for rule, d := range r.timings {
		out = append(out, RuleTiming{Rule: rule, Duration: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Run analyzes the packages, which must come from one Loader, and
// returns findings sorted by position. Suppressed findings are dropped;
// malformed or stale //lint:ignore directives are themselves findings.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	analyzers := r.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}
	r.timings = make(map[string]time.Duration, len(analyzers)+1)
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var raw []Diagnostic
	report := func(rule string, pos token.Pos, format string, args ...any) {
		raw = append(raw, Diagnostic{Pos: fset.Position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)})
	}
	ignores := collectIgnores(pkgs, report)
	byFile := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			byFile[fset.Position(f.Pos()).Filename] = pkg
		}
	}

	if len(analyzers) > 0 {
		start := time.Now()
		prog := flow.Build(pkgs)
		r.timings["(flow-graph)"] = time.Since(start)
		for _, a := range analyzers {
			wp := &WholePass{Pkgs: pkgs, Program: prog, analyzer: a, fset: fset, pkgByFile: byFile, report: report}
			start := time.Now()
			a.Run(wp)
			r.timings[a.Name] += time.Since(start)
		}
	}

	var kept []Diagnostic
	for _, d := range raw {
		if d.Rule == "lint-directive" || !ignores.suppressed(d.Rule, d.Pos) {
			kept = append(kept, d)
		}
	}
	if r.ReportUnusedIgnores {
		for _, d := range ignores.unused() {
			kept = append(kept, Diagnostic{
				Pos:     d.pos,
				Rule:    "lint-directive",
				Message: fmt.Sprintf("lint:ignore %s suppresses nothing; remove it", d.rule),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Rule < kept[j].Rule
	})
	return kept
}
