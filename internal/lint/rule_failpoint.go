package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// failpointCoverageAnalyzer reconciles the failpoint registry with its
// consumers, module-wide: every site passed to fault.Declare must be
// consulted somewhere (fault.Check or fault.Torn — a declared-but-dead
// site gives the chaos suites false confidence), every declared
// production site must be armed by at least one chaos schedule or
// boundary test, and no spec may arm a site nobody declared (a typo there
// silently disables the injection it was meant to exercise).
//
// Per package, Run collects three kinds of evidence and exports them as
// facts: Declare/Check/Torn calls with constant site arguments from the
// type-checked files, syntactic fault.* calls from the parse-only _test.go
// files, and every string literal anywhere that matches the arm-spec
// grammar site=mode[:k=v][;...] — which catches schedules built with
// fmt.Sprintf or stored in tables before reaching fault.Arm. Sites
// declared inside _test.go files are the fault package's own test rigs:
// arming them is fine, but they owe no coverage. The finish phase joins
// the three sets and reports the gaps.
var failpointCoverageAnalyzer = &Analyzer{
	Name: "failpoint-coverage",
	Doc:  "every fault.Declare site must be consulted and armed; no spec may arm an unknown site",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if strings.HasSuffix(p.Path, "internal/fault") {
			// The registry's own package: its _test.go rigs declare and
			// arm scratch sites; record the declarations so foreign arms
			// of them would still be validated, but skip the literal
			// sweep of its parser tests (they exercise malformed specs).
			for _, f := range p.TestFiles {
				collectTestFaultCalls(pass, f, true)
			}
			return
		}
		for _, f := range p.Files {
			collectFaultCalls(pass, f)
			sweepSpecLiterals(pass, f)
		}
		for _, f := range p.TestFiles {
			collectTestFaultCalls(pass, f, false)
			sweepSpecLiterals(pass, f)
		}
	},
	Finish: failpointFinish,
}

// fpFact is one piece of failpoint evidence.
type fpFact struct {
	Kind fpKind
	Site string
	Pos  token.Pos
}

type fpKind int

const (
	fpDeclared     fpKind = iota // fault.Declare in a production file
	fpTestDeclared               // fault.Declare in a _test.go file (scratch rig)
	fpConsulted                  // fault.Check / fault.Torn
	fpArmed                      // fault.Arm call or arm-spec string literal
)

// collectFaultCalls records Declare/Check/Torn/Arm calls with constant
// site arguments from a type-checked file.
func collectFaultCalls(pass *Pass, f *ast.File) {
	p := pass.Pkg
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/fault") {
			return true
		}
		site, okSite := constStringArg(p, call, 0)
		switch fn.Name() {
		case "Declare":
			if okSite {
				pass.ExportFact(fpFact{Kind: fpDeclared, Site: site, Pos: call.Pos()})
			}
		case "Check", "Torn":
			if okSite {
				pass.ExportFact(fpFact{Kind: fpConsulted, Site: site, Pos: call.Pos()})
			}
		case "Arm":
			if okSite {
				for _, s := range specSites(site) {
					pass.ExportFact(fpFact{Kind: fpArmed, Site: s, Pos: call.Pos()})
				}
			}
			// Non-constant specs are covered by the literal sweep at
			// the point the literal is written.
		}
		return true
	})
}

// collectTestFaultCalls is the syntactic twin for parse-only _test.go
// files: any call shaped fault.XXX("site", ...) counts, resolved by the
// package qualifier's name alone.
func collectTestFaultCalls(pass *Pass, f *ast.File, ownPackage bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		qual, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || qual.Name != "fault" {
			// Inside package fault's own internal tests the calls are
			// unqualified; accept bare Declare/Check/Torn/Arm idents too.
			if !ownPackage {
				return true
			}
			id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
			if !isIdent {
				return true
			}
			sel = &ast.SelectorExpr{X: id, Sel: id} // reuse Sel switch below
		}
		site, okSite := litStringArg(call, 0)
		if !okSite {
			return true
		}
		switch sel.Sel.Name {
		case "Declare":
			pass.ExportFact(fpFact{Kind: fpTestDeclared, Site: site, Pos: call.Pos()})
		case "Check", "Torn":
			pass.ExportFact(fpFact{Kind: fpConsulted, Site: site, Pos: call.Pos()})
		case "Arm":
			for _, s := range specSites(site) {
				pass.ExportFact(fpFact{Kind: fpArmed, Site: s, Pos: call.Pos()})
			}
		}
		return true
	})
}

// sweepSpecLiterals scans every string literal of the file for arm-spec
// shapes, catching schedules that reach fault.Arm through variables,
// slices, or fmt.Sprintf.
func sweepSpecLiterals(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := unquote(lit.Value)
		if err != nil {
			return true
		}
		for _, site := range specSites(s) {
			pass.ExportFact(fpFact{Kind: fpArmed, Site: site, Pos: lit.Pos()})
		}
		return true
	})
}

// specSites extracts the site names from a string iff it matches the
// fault-spec grammar `site=mode[:k=v]...` joined by ';', where a site
// contains a '/' and the mode is one of the registry's. Sprintf
// placeholders in the parameter tail are tolerated; a placeholder inside
// the site name itself disqualifies the segment (the site is unknowable
// statically).
func specSites(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ";") {
		seg = strings.TrimSpace(seg)
		site, rest, ok := strings.Cut(seg, "=")
		if !ok || !strings.Contains(site, "/") || strings.Contains(site, "%") || strings.ContainsAny(site, " \t\n") {
			continue
		}
		mode, _, _ := strings.Cut(rest, ":")
		switch mode {
		case "error", "delay", "panic", "torn":
			out = append(out, site)
		}
	}
	return out
}

// constStringArg resolves call argument i to its constant string value.
func constStringArg(p *Package, call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	tv, ok := p.Info.Types[call.Args[i]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// litStringArg reads call argument i when it is a plain string literal
// (the parse-only path has no constant folding).
func litStringArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	lit, ok := ast.Unparen(call.Args[i]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// failpointFinish joins the module-wide evidence and reports coverage
// gaps, each once, at the earliest relevant position.
func failpointFinish(pass *FinishPass) {
	type site struct {
		declaredAt  token.Pos
		testRig     bool
		consulted   bool
		armed       bool
		firstArmPos token.Pos
	}
	sites := map[string]*site{}
	get := func(name string) *site {
		if s, ok := sites[name]; ok {
			return s
		}
		s := &site{}
		sites[name] = s
		return s
	}
	for _, f := range pass.Facts() {
		v, ok := f.Value.(fpFact)
		if !ok {
			continue
		}
		s := get(v.Site)
		switch v.Kind {
		case fpDeclared:
			if s.declaredAt == token.NoPos || v.Pos < s.declaredAt {
				s.declaredAt = v.Pos
			}
		case fpTestDeclared:
			s.testRig = true
			if s.declaredAt == token.NoPos {
				s.declaredAt = v.Pos
			}
		case fpConsulted:
			s.consulted = true
		case fpArmed:
			s.armed = true
			if s.firstArmPos == token.NoPos || v.Pos < s.firstArmPos {
				s.firstArmPos = v.Pos
			}
		}
	}

	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sites[name]
		declared := s.declaredAt != token.NoPos
		switch {
		case !declared && s.armed:
			pass.Reportf(s.firstArmPos, "chaos spec arms unknown failpoint %q: no fault.Declare matches (typo disables the injection)", name)
		case declared && !s.testRig && !s.consulted:
			pass.Reportf(s.declaredAt, "failpoint %q is declared but never consulted by fault.Check or fault.Torn (dead site)", name)
		case declared && !s.testRig && !s.armed:
			pass.Reportf(s.declaredAt, "failpoint %q is never armed by any chaos schedule or boundary test (uncovered site)", name)
		}
	}
}

// unquote strips Go string-literal quoting.
func unquote(raw string) (string, error) {
	return strconv.Unquote(raw)
}
