// Command pdsplint is PDSP-Bench's static-analysis gate: a stdlib-only
// linter enforcing the invariants the benchmark's reproducibility
// depends on (deterministic simulation, tracked goroutines, lock and
// error discipline, a closed metric-name registry, layered imports).
//
// Usage:
//
//	pdsplint [-rule name[,name]] [-json | -timings] [packages]
//	pdsplint -list
//
// Packages default to ./... relative to the enclosing module. The exit
// code is 0 when clean, 1 when findings were reported, 2 on load or
// usage errors. Findings print as file:line:col: rule: message; -json
// switches to a machine-readable report (findings plus load and
// per-analyzer timings) for gate artifacts, and -timings prints the
// per-analyzer wall-time table after a human-readable run.
// Suppress a finding with a preceding `//lint:ignore <rule> <reason>`
// comment; the reason is mandatory and stale ignores are findings too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pdspbench/internal/lint"
)

// jsonReport is the -json output schema, consumed by scripts/check.sh
// (lint_report.json) and any CI wanting structured results.
type jsonReport struct {
	Root      string             `json:"root"`
	Packages  int                `json:"packages"`
	Analyzers []string           `json:"analyzers"`
	Findings  []jsonFinding      `json:"findings"`
	TimingsMS map[string]float64 `json:"timings_ms"`
	LoadMS    float64            `json:"load_ms"`
	TotalMS   float64            `json:"total_ms"`
}

type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("pdsplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list rules and exit")
	ruleFilter := fs.String("rule", "", "comma-separated rule names to run (default: all)")
	rootFlag := fs.String("root", "", "tree root to lint (default: the enclosing module root)")
	moduleFlag := fs.String("module", "", "module path of -root trees that carry no go.mod (e.g. lint fixtures)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report (findings + timings) instead of text")
	timings := fs.Bool("timings", false, "print per-analyzer wall time after the findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			scope := "module-wide"
			if len(a.Dirs) > 0 {
				scope = strings.Join(a.Dirs, ", ")
			}
			fmt.Fprintf(stdout, "%-26s [%s]\n    %s\n", a.Name, scope, a.Doc)
		}
		return 0
	}

	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			fmt.Fprintln(stderr, "pdsplint:", err)
			return 2
		}
	} else if abs, err := filepath.Abs(root); err == nil {
		root = abs
	}
	analyzers := lint.Analyzers()
	if *ruleFilter != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*ruleFilter, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "pdsplint: unknown rule %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	loader := &lint.Loader{Root: root, ModulePath: *moduleFlag}
	pkgs, err := loader.Load(patterns...)
	loadTime := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "pdsplint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "pdsplint: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "pdsplint: warning: %s: %v\n", pkg.Path, terr)
		}
	}

	runner := &lint.Runner{Analyzers: analyzers, ReportUnusedIgnores: *ruleFilter == ""}
	diags := runner.Run(pkgs)
	relFile := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return r
		}
		return name
	}

	if *jsonOut {
		report := jsonReport{
			Root:      root,
			Packages:  len(pkgs),
			Findings:  []jsonFinding{},
			TimingsMS: map[string]float64{},
			LoadMS:    roundMS(loadTime),
		}
		for _, a := range analyzers {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File: relFile(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		for _, rt := range runner.Timings() {
			report.TimingsMS[rt.Rule] = roundMS(rt.Duration)
		}
		report.TotalMS = roundMS(time.Since(start))
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "pdsplint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
		if *timings {
			fmt.Fprintf(stdout, "load: %7.1fms  (%d packages)\n", roundMS(loadTime), len(pkgs))
			for _, rt := range runner.Timings() {
				fmt.Fprintf(stdout, "%-26s %7.1fms\n", rt.Rule, roundMS(rt.Duration))
			}
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "pdsplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// roundMS renders a duration as milliseconds with 0.1ms resolution —
// coarse enough to diff gate artifacts without timing noise in every
// digit.
func roundMS(d time.Duration) float64 {
	return float64(d.Round(100*time.Microsecond)) / float64(time.Millisecond)
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
