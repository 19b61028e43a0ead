package lint

import "testing"

// TestDriverFactVisibility: facts flow from Run to the finish phase of
// the exporting analyzer; an analyzer that exported nothing sees none.
func TestDriverFactVisibility(t *testing.T) {
	pkgs := loadFixture(t)
	var own, other int
	b := &Analyzer{
		Name:   "b",
		Run:    func(p *Pass) { p.ExportFact("fact-from-" + p.Pkg.Path) },
		Finish: func(p *FinishPass) { own = len(p.Facts()) },
	}
	d := &Analyzer{
		Name:   "d",
		Run:    func(p *Pass) {},
		Finish: func(p *FinishPass) { other = len(p.Facts()) },
	}
	Check(pkgs, []*Analyzer{b, d})
	if own != len(pkgs) {
		t.Errorf("exporter sees %d of its own facts, want %d (one per package)", own, len(pkgs))
	}
	if other != 0 {
		t.Errorf("non-exporting analyzer sees %d facts, want 0", other)
	}
}

// TestDriverFinishReports: diagnostics filed in the finish phase carry
// the analyzer's rule name and join the sorted output.
func TestDriverFinishReports(t *testing.T) {
	pkgs := loadFixture(t)[:1]
	var pos = pkgs[0].Files[0].Pos()
	a := &Analyzer{
		Name:   "finish-reporter",
		Run:    func(p *Pass) {},
		Finish: func(p *FinishPass) { p.Reportf(pos, "from finish") },
	}
	diags := Check(pkgs, []*Analyzer{a})
	if len(diags) != 1 || diags[0].Rule != "finish-reporter" || diags[0].Message != "from finish" {
		t.Fatalf("finish diagnostics = %v", diags)
	}
}
