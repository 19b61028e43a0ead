package engine

import (
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/relation"
	"tdb/internal/testutil"
	"tdb/internal/workload"
)

// identicalRows is the strict equivalence check: not just the same row
// set, but the exact same row *sequence* as the reference.
func identicalRows(t *testing.T, name string, want, got *relation.Relation) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Key() != got.Rows[i].Key() {
			t.Fatalf("%s: row %d differs:\nwant: %q\ngot:  %q",
				name, i, want.Rows[i].Key(), got.Rows[i].Key())
		}
	}
}

// newPoissonDB registers two Poisson relations with enough containment
// structure (long X lifespans over short Y ones) to exercise boundary
// replication at every cut.
func newPoissonDB(t *testing.T, n int) *DB {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	db := NewDB()
	xs := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: 21}, "x")
	ys := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 4, Seed: 22}, "y")
	if err := db.Register(relation.FromTuples("X", xs)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(relation.FromTuples("Y", ys)); err != nil {
		t.Fatal(err)
	}
	return db
}

func spanOf(v string) algebra.SpanRef {
	return algebra.SpanRef{
		TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
		TE: algebra.ColRef{Var: v, Col: "ValidTo"},
	}
}

// joinOf builds a recognized temporal join node directly, the shape the
// optimizer's recognition pass produces.
func joinOf(kind algebra.TemporalKind) algebra.Expr {
	return &algebra.Join{
		L:     &algebra.Scan{Relation: "X", As: "a"},
		R:     &algebra.Scan{Relation: "Y", As: "b"},
		Kind:  kind,
		LSpan: spanOf("a"), RSpan: spanOf("b"),
	}
}

func semijoinOf(kind algebra.TemporalKind) algebra.Expr {
	return &algebra.Semijoin{
		L:     &algebra.Scan{Relation: "X", As: "a"},
		R:     &algebra.Scan{Relation: "Y", As: "b"},
		Kind:  kind,
		LSpan: spanOf("a"), RSpan: spanOf("b"),
	}
}

func hasNote(stats *Stats, substr string) bool {
	for _, n := range stats.Nodes {
		for _, note := range n.Notes {
			if strings.Contains(note, substr) {
				return true
			}
		}
	}
	return false
}
