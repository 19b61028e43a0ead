// Package lint implements tdblint, the repo-specific static-analysis
// pass. The paper's guarantees are invariants — half-open [TS, TE)
// lifespans compared only through package interval's Allen predicates,
// nil-safe metrics.Probe workspace accounting, deterministic experiment
// oracles, quit-guarded processor goroutines — and go vet cannot see any
// of them. Each analyzer here encodes one such invariant over the
// type-checked syntax trees of the whole module and reports findings as
//
//	file:line: [rule] message
//
// Every registered analyzer runs on every invocation, in one pass. Most
// work on single packages; hotpath-alloc audits //tdb:hotpath regions
// from their syntax and types alone; lock-order and failpoint-coverage
// export facts for a whole-module finish phase. See analysis.go for the
// driver contract.
//
// A finding is suppressed by a justification comment on the same line or
// the line directly above:
//
//	// lint:allow <rule> <why this site is exempt>
//
// The driver (cmd/tdblint) loads the module with only the standard
// library — go/parser for syntax, go/types with the stdlib source
// importer for semantics — so the pass runs offline with zero
// dependencies, exactly like the rest of the repo.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one rule. File is module-relative when
// the diagnostic leaves Run; inside Check it is whatever the FileSet
// holds (absolute for loaded modules).
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the canonical file:line: [rule] message
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// Reporter collects diagnostics for one rule, applying lint:allow
// suppressions.
type Reporter struct {
	fset  *token.FileSet
	rule  string
	allow map[string]map[int]map[string]bool // file -> line -> rules
	out   *[]Diagnostic
}

// Reportf files a diagnostic at pos unless a lint:allow comment covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	if lines := r.allow[p.Filename]; lines != nil {
		// A suppression applies to findings on its own line and on the
		// line directly below (comment-above style).
		for _, line := range []int{p.Line, p.Line - 1} {
			if lines[line][r.rule] {
				return
			}
		}
	}
	*r.out = append(*r.out, Diagnostic{
		File: p.Filename, Line: p.Line, Col: p.Column,
		Rule: r.rule, Message: fmt.Sprintf(format, args...),
	})
}

// suppressions scans every package's comments — test files included,
// since the failpoint analyzer reports into them — for lint:allow
// directives and returns file -> line -> allowed-rule-set.
func suppressions(pkgs []*Package) map[string]map[int]map[string]bool {
	out := map[string]map[int]map[string]bool{}
	for _, p := range pkgs {
		files := append(append([]*ast.File{}, p.Files...), p.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "lint:allow ")
					if idx < 0 {
						continue
					}
					fields := strings.Fields(c.Text[idx+len("lint:allow "):])
					if len(fields) == 0 {
						continue
					}
					rule := fields[0]
					if canon, ok := ruleAliases[rule]; ok {
						rule = canon
					}
					pos := p.Fset.Position(c.Pos())
					if out[pos.Filename] == nil {
						out[pos.Filename] = map[int]map[string]bool{}
					}
					if out[pos.Filename][pos.Line] == nil {
						out[pos.Filename][pos.Line] = map[string]bool{}
					}
					out[pos.Filename][pos.Line][rule] = true
				}
			}
		}
	}
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// relativize rewrites absolute diagnostic paths to module-relative ones
// (slash-separated).
func relativize(diags []Diagnostic, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// Config configures a Run.
type Config struct {
	// Dir names the module to lint (any directory at or under the root).
	Dir string
	// Rules is a comma-separated analyzer filter; empty selects every
	// analyzer.
	Rules string
	// JSON emits the findings as a JSON array instead of text lines.
	JSON bool
}

// Run loads the module at cfg.Dir, applies the selected analyzers, and
// writes the findings to w (one line each, or a JSON array with
// cfg.JSON). It returns the number of findings.
func Run(cfg Config, w io.Writer) (int, error) {
	analyzers, err := SelectAnalyzers(cfg.Rules)
	if err != nil {
		return 0, err
	}
	l, err := NewLoader(cfg.Dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return 0, err
	}
	diags := Check(pkgs, analyzers)
	relativize(diags, l.root)

	if cfg.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []Diagnostic{}
		}
		return len(diags), enc.Encode(diags)
	}
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return len(diags), err
		}
	}
	return len(diags), nil
}

// inScope reports whether the package's module-relative directory is the
// given prefix or nested below it — the unit rules use to scope
// themselves to subsystems like internal/core.
func inScope(p *Package, prefixes ...string) bool {
	for _, pre := range prefixes {
		if p.RelDir == pre || strings.HasPrefix(p.RelDir, pre+"/") {
			return true
		}
	}
	return false
}

// inspect walks every type-checked file of the package.
func inspect(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
