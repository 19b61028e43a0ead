package optimizer

import (
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
)

// Semijoin introduction must swap sides when the projection needs only the
// right input, flipping contain↔contained and exchanging the spans.
func TestIntroduceSemijoinsSwapsSides(t *testing.T) {
	col := algebra.Column
	// j during i, but the projection keeps only j's columns: after the
	// swap the semijoin keeps j tuples contained in some i.
	q := &algebra.Project{
		Input: &algebra.Select{
			Input: &algebra.Product{
				L: &algebra.Scan{Relation: "Faculty", As: "i"},
				R: &algebra.Scan{Relation: "Faculty", As: "j"},
			},
			Pred: algebra.Predicate{Atoms: []algebra.Atom{
				{L: col("i", "ValidFrom"), Op: algebra.LT, R: col("j", "ValidFrom")},
				{L: col("j", "ValidTo"), Op: algebra.LT, R: col("i", "ValidTo")},
			}},
		},
		Cols: []algebra.Output{
			{Name: "Name", From: algebra.ColRef{Var: "j", Col: "Name"}},
			{Name: "ValidFrom", From: algebra.ColRef{Var: "j", Col: "ValidFrom"}},
			{Name: "ValidTo", From: algebra.ColRef{Var: "j", Col: "ValidTo"}},
		},
		TSName: "ValidFrom", TEName: "ValidTo",
		Distinct: true,
	}
	res, err := Optimize(q, src(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi, ok := res.Tree.(*algebra.Project).Input.(*algebra.Semijoin)
	if !ok {
		t.Fatalf("no semijoin:\n%s", algebra.Format(res.Tree))
	}
	// Original pattern: i contains j. After the swap (left = j side):
	// j contained in i.
	if semi.Kind != algebra.KindContained {
		t.Fatalf("kind after swap = %v", semi.Kind)
	}
	if semi.LSpan.TS.Var != "j" || semi.RSpan.TS.Var != "i" {
		t.Errorf("spans not exchanged: %v / %v", semi.LSpan, semi.RSpan)
	}
	if vs := algebra.Vars(semi); len(vs) != 1 || vs[0] != "j" {
		t.Errorf("semijoin output vars: %v", vs)
	}
}

// A projection needing both sides cannot become a semijoin.
func TestIntroduceSemijoinsKeepsJoinWhenBothSidesNeeded(t *testing.T) {
	col := algebra.Column
	q := &algebra.Project{
		Input: &algebra.Select{
			Input: &algebra.Product{
				L: &algebra.Scan{Relation: "Faculty", As: "i"},
				R: &algebra.Scan{Relation: "Faculty", As: "j"},
			},
			Pred: algebra.Predicate{Atoms: []algebra.Atom{
				{L: col("i", "ValidFrom"), Op: algebra.LT, R: col("j", "ValidFrom")},
				{L: col("j", "ValidTo"), Op: algebra.LT, R: col("i", "ValidTo")},
			}},
		},
		Cols: []algebra.Output{
			{Name: "A", From: algebra.ColRef{Var: "i", Col: "Name"}},
			{Name: "B", From: algebra.ColRef{Var: "j", Col: "Name"}},
		},
		Distinct: true,
	}
	res, err := Optimize(q, src(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Tree.(*algebra.Project).Input.(*algebra.Join); !ok {
		t.Errorf("join converted despite both sides needed:\n%s", algebra.Format(res.Tree))
	}
}

// Without Distinct the rewrite is unsound (duplicates differ) and must not
// fire.
func TestIntroduceSemijoinsRequiresDistinct(t *testing.T) {
	col := algebra.Column
	q := &algebra.Project{
		Input: &algebra.Select{
			Input: &algebra.Product{
				L: &algebra.Scan{Relation: "Faculty", As: "i"},
				R: &algebra.Scan{Relation: "Faculty", As: "j"},
			},
			Pred: algebra.Predicate{Atoms: []algebra.Atom{
				{L: col("i", "ValidFrom"), Op: algebra.LT, R: col("j", "ValidTo")},
				{L: col("j", "ValidFrom"), Op: algebra.LT, R: col("i", "ValidTo")},
			}},
		},
		Cols: []algebra.Output{
			{Name: "Name", From: algebra.ColRef{Var: "i", Col: "Name"}},
		},
		Distinct: false,
	}
	res, err := Optimize(q, src(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Tree.(*algebra.Project).Input.(*algebra.Semijoin); ok {
		t.Error("semijoin introduced without duplicate elimination")
	}
}

// ExpandTree handles temporal atoms inside Join and Semijoin predicates.
func TestExpandTreeJoinNodes(t *testing.T) {
	ctx, err := BuildContext(&algebra.Product{
		L: &algebra.Scan{Relation: "Faculty", As: "a"},
		R: &algebra.Scan{Relation: "Faculty", As: "b"},
	}, src(), nil)
	if err != nil {
		t.Fatal(err)
	}
	join := &algebra.Join{
		L:    &algebra.Scan{Relation: "Faculty", As: "a"},
		R:    &algebra.Scan{Relation: "Faculty", As: "b"},
		Pred: algebra.Predicate{Temporal: []algebra.TemporalAtom{{L: "a", R: "b", Rel: interval.RelMeets}}},
	}
	out, err := ExpandTree(join, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p := out.(*algebra.Join).Pred; len(p.Atoms) != 1 || len(p.Temporal) != 0 {
		t.Errorf("join pred expanded to %v", p)
	}
	semi := &algebra.Semijoin{
		L:    &algebra.Scan{Relation: "Faculty", As: "a"},
		R:    &algebra.Scan{Relation: "Faculty", As: "b"},
		Pred: algebra.Predicate{Temporal: []algebra.TemporalAtom{{L: "a", R: "b", General: true}}},
	}
	out, err = ExpandTree(semi, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p := out.(*algebra.Semijoin).Pred; len(p.Atoms) != 2 {
		t.Errorf("semijoin pred expanded to %v", p)
	}
	agg := &algebra.Aggregate{
		Input: &algebra.Scan{Relation: "Faculty", As: "a"},
		Terms: []algebra.AggTerm{{Kind: algebra.AggCount, As: "n"}},
	}
	if _, err := ExpandTree(agg, ctx); err != nil {
		t.Errorf("aggregate expansion: %v", err)
	}
}

// Estimates render every predicted cost.
func TestEstimateRendering(t *testing.T) {
	est := JoinEstimate{NestedLoop: 100, Stream: 2000, Workspace: 5}
	if got := est.String(); got != "nested-loop=100 stream=2000 workspace=5.0" {
		t.Errorf("rendering: %q", got)
	}
}
