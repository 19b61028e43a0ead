package engine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/relation"
)

// A fork resolves every name it does not hold to its parent at the moment
// of use — relations, statistics, live state and constraints registered or
// appended after the fork was made included — and its own Register
// writes the fork alone.
func TestForkResolvesToParentAtUse(t *testing.T) {
	parent := newFacultyDB(t, 20, false)
	if err := parent.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork()
	parent.MustRegister(relation.FromTuples("X", surrogates("x", 12)))

	x, err := fork.Relation("X")
	if err != nil || x != mustRelation(t, parent, "X") || fork.Stats("X") != parent.Stats("X") {
		t.Fatalf("the fork does not read X registered on the parent after the fork: %v", err)
	}
	if len(fork.ChronOrders()) != 1 {
		t.Errorf("the fork sees %d constraints, want the parent's one", len(fork.ChronOrders()))
	}
	if err := parent.Append("X", relation.TupleToRow(tuple("x99", "v", 40, 50))); err != nil {
		t.Fatal(err)
	}
	parent.RefreshStats("X")
	if fork.Stats("X").Cardinality != 13 || fork.ActiveSpans("X") != parent.ActiveSpans("X") {
		t.Errorf("the fork's statistics of X: %d rows, want the appended parent's 13", fork.Stats("X").Cardinality)
	}

	parentStats, parentX := parent.Stats("X"), mustRelation(t, parent, "X")
	own := relation.FromTuples("X", surrogates("o", 3))
	fork.MustRegister(own)
	fork.MustRegister(relation.FromTuples("Z", surrogates("z", 2)))
	if mustRelation(t, fork, "X") != own || fork.Stats("X").Cardinality != 3 {
		t.Errorf("the fork's own X does not shadow the parent's")
	}
	if mustRelation(t, parent, "X") != parentX || parent.Stats("X") != parentStats || parent.ActiveSpans("X") == 0 {
		t.Errorf("Register on the fork changed the parent's X, its statistics or its live state")
	}
	if _, err := parent.Relation("Z"); err == nil {
		t.Errorf("the fork's Z leaked into the parent")
	}
	if got := fork.Names(); !slices.Equal(got, []string{"Faculty", "X", "Z"}) {
		t.Errorf("fork names %v", got)
	}
	if got := parent.Names(); !slices.Equal(got, []string{"Faculty", "X"}) {
		t.Errorf("parent names %v", got)
	}

	faculty := relation.FromTuples("Faculty", surrogates("f", 4))
	parent.MustRegister(faculty)
	if mustRelation(t, fork, "Faculty") != faculty {
		t.Errorf("the fork does not read Faculty registered again on the parent")
	}
}

func mustRelation(t *testing.T, db *DB, name string) *relation.Relation {
	t.Helper()
	rel, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// Forks share their parent's relation index: an order and a key fact the
// first query on one fork builds are index hits for the first query on
// another, and for the parent's. Closing a fork drops its own relations'
// entries and keeps the parent's, whose stored file it leaves open.
func TestForkSharesRelationIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	xs, ys := tiedTuples(rng, 400, "x"), tiedTuples(rng, 300, "y")
	parent := storedTiedDB(t, xs, ys, func(int64) int { return 2 })
	parent.MustRegister(relation.FromTuples("K", surrogates("k", 30)))
	semi := semijoinOf(algebra.KindContain)
	keyed := projectOf(&algebra.Scan{Relation: "K", As: "a"}, ref("a", "S"), ref("a", "ValidFrom"))

	a, b := parent.Fork(), parent.Fork()
	want, wst, err := Run(a, semi, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	if indexHits(wst) != 0 {
		t.Fatalf("the first fork's first run: %d index hits, want 0", indexHits(wst))
	}
	if _, _, err := Run(a, keyed, colOpt()); err != nil {
		t.Fatal(err)
	}
	k := mustRelation(t, parent, "K")
	fact := factEntry(parent, k, "S", "ValidFrom")
	if fact == nil || !fact.key {
		t.Fatalf("no key fact of K(S, ValidFrom) after the first fork's run: %+v", fact)
	}
	used := fact.used

	got, gst, err := Run(b, semi, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	sameWork(t, "the second fork's first run", want, got, wst, gst)
	if indexHits(gst) != 2 {
		t.Errorf("the second fork's first run: %d index hits, want both inputs", indexHits(gst))
	}
	_, kst, err := Run(b, keyed, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(projectNote(t, kst), skipNote) || fact.used == used {
		t.Errorf("the second fork's projection did not read the first fork's key fact: %q", projectNote(t, kst))
	}

	// a's own X shadows the stored one and fills its own entries.
	own := relation.FromTuples("X", tiedTuples(rng, 200, "o"))
	a.MustRegister(own)
	if _, _, err := Run(a, semi, colOpt()); err != nil {
		t.Fatal(err)
	}
	if entriesOf(parent, own) == 0 {
		t.Fatal("the fork's own X left no entry")
	}
	x, y := mustRelation(t, parent, "X"), mustRelation(t, parent, "Y")
	before := [3]int{entriesOf(parent, x), entriesOf(parent, y), entriesOf(parent, k)}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := entriesOf(parent, own); n != 0 {
		t.Errorf("the closed fork's X keeps %d entries", n)
	}
	if after := [3]int{entriesOf(parent, x), entriesOf(parent, y), entriesOf(parent, k)}; after != before {
		t.Errorf("closing a fork changed the parent's entries: X, Y, K %v, want %v", after, before)
	}
	requireFreshRun(t, parent, semi, xs, ys, "the parent after a fork closed", 2)
}
