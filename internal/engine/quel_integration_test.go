package engine

import (
	"strings"
	"testing"

	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// End to end: Quel text → parse → translate → optimize → execute, for both
// a temporal query and an aggregate, against one database.
func TestQuelEndToEnd(t *testing.T) {
	db := salaryDB(t)

	run := func(src string) *relation.Relation {
		t.Helper()
		prog, err := quel.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := quel.Translate(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(qs[0].Tree, db, optimizer.Options{ICs: db.ChronOrders()})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := Run(db, res.Tree, Options{VerifyOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Aggregate: payroll per department among rows valid at chronon 7.
	out := run(`range of e is Emp
retrieve (Dept=e.Dept, payroll=sum(e.Salary), n=count(e))
where e.ValidFrom <= 7 and e.ValidTo > 7`)
	if out.Cardinality() != 2 {
		t.Fatalf("groups: %v", out)
	}
	want := map[string][2]int64{"cs": {180, 2}, "ee": {270, 3}}
	for _, r := range out.Rows {
		w := want[r[0].AsString()]
		if r[1].AsInt() != w[0] || r[2].AsInt() != w[1] {
			t.Errorf("group %v: %v, want %v", r[0], r, w)
		}
	}

	// Temporal self-join through the full optimizer: pairs of employees
	// whose salary periods intersect (general overlap), counted.
	out = run(`range of a is Emp
range of b is Emp
retrieve (X=a.Emp, Y=b.Emp)
where (a overlap b) and a.Emp != b.Emp`)
	if out.Cardinality() == 0 {
		t.Fatal("no overlapping salary periods found")
	}
	// Symmetry: (x,y) present ⇔ (y,x) present.
	seen := map[string]bool{}
	for _, r := range out.Rows {
		seen[r[0].AsString()+"|"+r[1].AsString()] = true
	}
	for k := range seen {
		x, y, _ := strings.Cut(k, "|")
		if !seen[y+"|"+x] {
			t.Errorf("overlap not symmetric: %s present, %s missing", k, y+"|"+x)
		}
	}
	_ = value.Int(0)
}

// retrieve has set semantics: DISTINCT keeps two rows that differ in every
// cell even when a separator-joined "kind:value" rendering would key them
// alike.
func TestQuelRetrieveKeepsSeparatorCollidingRows(t *testing.T) {
	db := collidingDB(t, [2]string{"a\x1f1:b", "c"}, [2]string{"a", "b\x1f1:c"})
	prog, err := quel.Parse("range of p is P\nretrieve (A=p.A, B=p.B)")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Run(db, qs[0].Tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 2 {
		t.Fatalf("retrieve returned %d rows, want 2\n%s", out.Cardinality(), out)
	}
}
