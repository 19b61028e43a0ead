package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Analyzer is one invariant check, shaped after golang.org/x/tools'
// go/analysis (which the repo cannot depend on): a named pass over a
// type-checked package that may export facts for a whole-module finish
// phase.
//
// The lifecycle, driven by Check:
//
//  1. For every package, in deterministic (import-path) order, each
//     analyzer's Run is invoked with a Pass. Run may report diagnostics
//     and export facts.
//  2. After every package has been visited, each analyzer's Finish hook
//     (if any) runs once with a FinishPass holding the analyzer's
//     accumulated facts — the cross-package phase where the
//     lock-ordering graph is cycle-checked and the failpoint registry is
//     reconciled against its consumers.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package.
	Run func(pass *Pass)
	// Finish, if non-nil, runs once after every package's Run, for
	// whole-module checks over exported facts.
	Finish func(pass *FinishPass)
}

// Fact is one cross-package observation exported by an analyzer's Run,
// tagged with the package that produced it.
type Fact struct {
	Pkg   *Package
	Value any
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Pkg *Package

	reporter *Reporter
	facts    *[]Fact // the analyzer's own facts, in package order
}

// Reportf files a diagnostic at pos unless a lint:allow comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reporter.Reportf(pos, format, args...)
}

// ExportFact records a cross-package observation for the finish phase.
func (p *Pass) ExportFact(v any) {
	*p.facts = append(*p.facts, Fact{Pkg: p.Pkg, Value: v})
}

// FinishPass carries an analyzer's whole-module finish phase.
type FinishPass struct {
	Fset *token.FileSet

	reporter *Reporter
	facts    []Fact
}

// Reportf files a diagnostic at pos unless a lint:allow comment covers it.
func (p *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	p.reporter.Reportf(pos, format, args...)
}

// Facts returns the facts the finishing analyzer itself exported, in
// package order (packages are visited deterministically, so the order
// is stable).
func (p *FinishPass) Facts() []Fact { return p.facts }

// Analyzers returns every registered analyzer, in fixed registration
// order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		probeNilSafetyAnalyzer,
		intervalEncapsulationAnalyzer,
		noPanicAnalyzer,
		determinismAnalyzer,
		goroutineHygieneAnalyzer,
		workerContextAnalyzer,
		errorDisciplineAnalyzer,
		hotpathAllocAnalyzer,
		lockOrderAnalyzer,
		failpointCoverageAnalyzer,
	}
}

// ruleAliases maps alternative lint:allow tokens to analyzer names, so
// the natural comment "lint:allow panic" addresses the no-panic rule.
var ruleAliases = map[string]string{
	"panic":     "no-panic",
	"hotpath":   "hotpath-alloc",
	"lockorder": "lock-order",
	"failpoint": "failpoint-coverage",
}

// SelectAnalyzers filters the registry by a comma-separated name list;
// the empty filter selects every analyzer.
func SelectAnalyzers(filter string) ([]*Analyzer, error) {
	all := Analyzers()
	if filter == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if canon, ok := ruleAliases[name]; ok {
			name = canon
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Check runs the given analyzers over the given packages, then the
// finish phase, and returns the sorted findings.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	facts := make([][]Fact, len(analyzers))
	allow := suppressions(pkgs)
	var fset *token.FileSet
	for _, p := range pkgs {
		fset = p.Fset
		for i, a := range analyzers {
			a.Run(&Pass{
				Pkg:      p,
				reporter: &Reporter{fset: p.Fset, rule: a.Name, allow: allow, out: &diags},
				facts:    &facts[i],
			})
		}
	}
	for i, a := range analyzers {
		if a.Finish == nil || fset == nil {
			continue
		}
		a.Finish(&FinishPass{
			Fset:     fset,
			reporter: &Reporter{fset: fset, rule: a.Name, allow: allow, out: &diags},
			facts:    facts[i],
		})
	}
	sortDiagnostics(diags)
	return diags
}
