package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantMarker is one `// want <rule>` expectation in a fixture file.
type wantMarker struct {
	file string
	line int
	rule string
}

// collectWants scans every fixture .go file for `// want <rule>` markers.
func collectWants(t *testing.T, root string) []wantMarker {
	t.Helper()
	var wants []wantMarker
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, after, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			rule := strings.Fields(after)[0]
			wants = append(wants, wantMarker{file: path, line: line, rule: rule})
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no // want markers found under", root)
	}
	return wants
}

// loadFixture type-checks the testdata mini-module once per test run.
func loadFixture(t *testing.T) []*Package {
	t.Helper()
	l, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestFixtures runs every analyzer over the fixture module and requires
// the findings to match the inline `// want <rule>` markers exactly:
// every marker must produce a diagnostic on its line, and every
// diagnostic must be marked. Each rule thus gets its positive cases
// asserted here and its negative cases (the unmarked code in the same
// files) asserted by the absence of extra findings.
func TestFixtures(t *testing.T) {
	diags := Check(loadFixture(t), Analyzers())

	key := func(file string, line int, rule string) string {
		return fmt.Sprintf("%s:%d:%s", filepath.Base(file), line, rule)
	}
	want := map[string]bool{}
	for _, w := range collectWants(t, "testdata/src") {
		want[key(w.file, w.line, w.rule)] = true
	}
	got := map[string]bool{}
	for _, d := range diags {
		got[key(d.File, d.Line, d.Rule)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected finding missing: %s", k)
		}
	}
	for _, d := range diags {
		if !want[key(d.File, d.Line, d.Rule)] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// TestEveryRuleHasPositiveAndNegative guards the fixture set itself: if
// a rule loses its markers the coverage silently evaporates, so require
// at least one marked (positive) line per analyzer, and reject markers
// naming unknown rules.
func TestEveryRuleHasPositiveAndNegative(t *testing.T) {
	wants := collectWants(t, "testdata/src")
	byRule := map[string]int{}
	for _, w := range wants {
		byRule[w.rule]++
	}
	for _, a := range Analyzers() {
		if byRule[a.Name] == 0 {
			t.Errorf("rule %s has no positive fixture (// want %s marker)", a.Name, a.Name)
		}
	}
	for rule := range byRule {
		found := false
		for _, a := range Analyzers() {
			if a.Name == rule {
				found = true
			}
		}
		if !found {
			t.Errorf("marker names unknown rule %q", rule)
		}
	}
}

// TestSelectAnalyzers covers the -rules filter: the empty filter picks
// every analyzer, aliases resolve, and unknown names error.
func TestSelectAnalyzers(t *testing.T) {
	all, err := SelectAnalyzers("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("empty filter: got %d analyzers, err %v", len(all), err)
	}
	rs, err := SelectAnalyzers("determinism, panic")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "determinism" || rs[1].Name != "no-panic" {
		t.Fatalf("filter with alias resolved to %s", analyzerNames(rs))
	}
	if _, err := SelectAnalyzers("nope"); err == nil {
		t.Fatal("unknown rule name must error")
	}
}

// TestRuleFilterScopes re-checks the fixture with a single rule selected
// and requires findings from only that rule.
func TestRuleFilterScopes(t *testing.T) {
	rs, err := SelectAnalyzers("interval-encapsulation")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(loadFixture(t), rs)
	if len(diags) == 0 {
		t.Fatal("interval-encapsulation found nothing in the fixture")
	}
	for _, d := range diags {
		if d.Rule != "interval-encapsulation" {
			t.Errorf("filtered run leaked rule %s: %s", d.Rule, d)
		}
	}
}

// TestRunCoversEveryRule: the default run — no -rules filter, as in
// `make lint` and CI — reports findings from every registered analyzer
// over the fixture module, so no rule can drop out of the gate.
func TestRunCoversEveryRule(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(Config{Dir: "testdata/src", JSON: true}, &buf); err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Rule] = true
	}
	for _, a := range Analyzers() {
		if !seen[a.Name] {
			t.Errorf("default run reported nothing for rule %s", a.Name)
		}
	}
}

// TestRunJSON drives the full Run entry point in JSON mode and checks
// the findings decode with populated fields, sorted by position.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	n, err := Run(Config{Dir: "testdata/src", JSON: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("Run -json emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if len(diags) != n {
		t.Fatalf("Run reported %d findings, JSON holds %d", n, len(diags))
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Rule == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		return diags[i].Line < diags[j].Line
	}) {
		t.Error("diagnostics are not sorted by file and line")
	}
}

// TestRunTextFormat checks the canonical file:line: [rule] message shape.
func TestRunTextFormat(t *testing.T) {
	var buf bytes.Buffer
	n, err := Run(Config{Dir: "testdata/src", Rules: "no-panic"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n || n == 0 {
		t.Fatalf("got %d lines for %d findings:\n%s", len(lines), n, buf.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, ": [no-panic] ") {
			t.Errorf("malformed finding line: %q", line)
		}
	}
}

// TestRepoIsClean is the acceptance gate: the real module at HEAD must
// lint clean under every rule, so `make lint` and CI stay green.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var buf bytes.Buffer
	n, err := Run(Config{Dir: "../.."}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("the repo has %d lint finding(s):\n%s", n, buf.String())
	}
}

// TestRepoIsCleanDeep: the whole-program rules, selected on their own
// with -rules as when one of them is being debugged, still see the whole
// module and find the repo clean.
func TestRepoIsCleanDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	const deep = "hotpath-alloc,lock-order,failpoint-coverage"
	rs, err := SelectAnalyzers(deep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("-rules %s selected %d analyzers, want 3", deep, len(rs))
	}
	var buf bytes.Buffer
	n, err := Run(Config{Dir: "../..", Rules: deep}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("-rules %s finds %d finding(s) in the repo:\n%s", deep, n, buf.String())
	}
}
