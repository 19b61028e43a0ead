package engine

import (
	"fmt"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

func salarySchema() *relation.Schema {
	return relation.MustSchema([]relation.Column{
		{Name: "Dept", Kind: value.KindString},
		{Name: "Emp", Kind: value.KindString},
		{Name: "Salary", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 3, 4)
}

func salaryDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	rel := relation.New("Emp", salarySchema())
	add := func(dept, emp string, sal int64, from, to interval.Time) {
		rel.MustInsert(relation.Row{
			value.String_(dept), value.String_(emp), value.Int(sal),
			value.TimeVal(from), value.TimeVal(to),
		})
	}
	add("cs", "ada", 100, 0, 10)
	add("cs", "alan", 80, 0, 10)
	add("ee", "grace", 90, 0, 10)
	add("ee", "edith", 120, 5, 15)
	add("ee", "edsger", 60, 5, 15)
	db.MustRegister(rel)
	return db
}

// The Figure 4 processor as an engine operator: per-department sums.
func TestAggregateSumCountMinMax(t *testing.T) {
	db := salaryDB(t)
	q := &algebra.Aggregate{
		Input:   &algebra.Scan{Relation: "Emp", As: "e"},
		GroupBy: []algebra.ColRef{{Var: "e", Col: "Dept"}},
		Terms: []algebra.AggTerm{
			{Kind: algebra.AggSum, Of: algebra.ColRef{Var: "e", Col: "Salary"}, As: "total"},
			{Kind: algebra.AggCount, As: "n"},
			{Kind: algebra.AggMin, Of: algebra.ColRef{Var: "e", Col: "Salary"}, As: "lo"},
			{Kind: algebra.AggMax, Of: algebra.ColRef{Var: "e", Col: "Salary"}, As: "hi"},
		},
	}
	out, stats, err := Run(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 2 {
		t.Fatalf("groups = %d\n%s", out.Cardinality(), out)
	}
	want := map[string][4]int64{
		"cs": {180, 2, 80, 100},
		"ee": {270, 3, 60, 120},
	}
	for _, r := range out.Rows {
		w := want[r[0].AsString()]
		if r[1].AsInt() != w[0] || r[2].AsInt() != w[1] || r[3].AsInt() != w[2] || r[4].AsInt() != w[3] {
			t.Errorf("group %s: got %v, want %v", r[0], r, w)
		}
	}
	if out.Schema.Temporal() {
		t.Error("aggregate result must be snapshot")
	}
	// Deterministic group order (sorted by key).
	if out.Rows[0][0].AsString() != "cs" {
		t.Error("groups not ordered")
	}
	// State = one accumulator per group.
	if stats.Nodes[len(stats.Nodes)-1].Probe.StateHighWater != 2 {
		t.Errorf("aggregate state %d, want 2", stats.Nodes[len(stats.Nodes)-1].Probe.StateHighWater)
	}
}

// Aggregation over a temporal selection: total payroll at a chronon.
func TestAggregateOverTimeslicePredicate(t *testing.T) {
	db := salaryDB(t)
	col := algebra.Column
	q := &algebra.Aggregate{
		Input: &algebra.Select{
			Input: &algebra.Scan{Relation: "Emp", As: "e"},
			Pred: algebra.Predicate{Atoms: []algebra.Atom{
				{L: col("e", "ValidFrom"), Op: algebra.LE, R: algebra.Const(value.TimeVal(7))},
				{L: col("e", "ValidTo"), Op: algebra.GT, R: algebra.Const(value.TimeVal(7))},
			}},
		},
		Terms: []algebra.AggTerm{
			{Kind: algebra.AggSum, Of: algebra.ColRef{Var: "e", Col: "Salary"}, As: "payroll"},
		},
	}
	out, _, err := Run(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 1 || out.Rows[0][0].AsInt() != 450 {
		t.Fatalf("payroll at t=7: %v", out)
	}
}

func TestAggregateErrors(t *testing.T) {
	db := salaryDB(t)
	bad := &algebra.Aggregate{
		Input:   &algebra.Scan{Relation: "Emp", As: "e"},
		GroupBy: []algebra.ColRef{{Var: "e", Col: "Nope"}},
		Terms:   []algebra.AggTerm{{Kind: algebra.AggCount, As: "n"}},
	}
	if _, _, err := Run(db, bad, Options{}); err == nil {
		t.Error("unknown group column accepted")
	}
	bad2 := &algebra.Aggregate{
		Input: &algebra.Scan{Relation: "Emp", As: "e"},
		Terms: []algebra.AggTerm{{Kind: algebra.AggSum, Of: algebra.ColRef{Var: "e", Col: "Nope"}, As: "x"}},
	}
	if _, _, err := Run(db, bad2, Options{}); err == nil {
		t.Error("unknown aggregate column accepted")
	}
}

// Grand total: no group-by columns at all.
func TestAggregateNoGroups(t *testing.T) {
	db := salaryDB(t)
	q := &algebra.Aggregate{
		Input: &algebra.Scan{Relation: "Emp", As: "e"},
		Terms: []algebra.AggTerm{{Kind: algebra.AggCount, As: "n"}},
	}
	out, _, err := Run(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 1 || out.Rows[0][0].AsInt() != 5 {
		t.Fatalf("count(*): %v", out)
	}
}

func TestTimeslice(t *testing.T) {
	db := salaryDB(t)
	rel, err := db.Relation("Emp")
	if err != nil {
		t.Fatal(err)
	}
	slice, err := relation.Timeslice(rel, 12)
	if err != nil {
		t.Fatal(err)
	}
	if slice.Cardinality() != 2 { // edith and edsger, [5,15)
		t.Fatalf("timeslice at 12: %v", slice)
	}
	if _, err := relation.Timeslice(slice, 12); err != nil {
		t.Errorf("timeslice of timeslice: %v", err)
	}
	snap := relation.New("S", relation.MustSchema([]relation.Column{{Name: "A", Kind: value.KindInt}}, -1, -1))
	if _, err := relation.Timeslice(snap, 0); err == nil {
		t.Error("timeslice of snapshot accepted")
	}
	// Boundary semantics: half-open lifespans.
	if s, _ := relation.Timeslice(rel, 10); s.Cardinality() != 2 {
		t.Errorf("timeslice at 10 (cs rows end): %d rows, want 2", s.Cardinality())
	}
}

// collidingDB registers P(A, B) holding one row per (A, B) cell pair.
func collidingDB(t *testing.T, cells ...[2]string) *DB {
	t.Helper()
	rel := relation.New("P", relation.MustSchema([]relation.Column{
		{Name: "A", Kind: value.KindString},
		{Name: "B", Kind: value.KindString},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3))
	for _, c := range cells {
		rel.MustInsert(relation.Row{value.String_(c[0]), value.String_(c[1]), value.TimeVal(0), value.TimeVal(5)})
	}
	db := NewDB()
	db.MustRegister(rel)
	return db
}

// Two groups whose cells a separator-terminated rendering would key alike.
func TestAggregateGroupsAreExact(t *testing.T) {
	q := &algebra.Aggregate{
		Input:   &algebra.Scan{Relation: "P", As: "p"},
		GroupBy: []algebra.ColRef{{Var: "p", Col: "A"}, {Var: "p", Col: "B"}},
		Terms:   []algebra.AggTerm{{Kind: algebra.AggCount, As: "n"}},
	}
	out, _, err := Run(collidingDB(t, [2]string{"a\x1fb", "c"}, [2]string{"a", "b\x1fc"}), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 2 {
		t.Fatalf("groups = %d, want 2\n%s", out.Cardinality(), out)
	}
}

// Groups come out in key order under value.Compare: Int 9 before 10.
func TestAggregateOrdersIntKeysNumerically(t *testing.T) {
	rel := relation.New("N", relation.MustSchema([]relation.Column{{Name: "K", Kind: value.KindInt}}, -1, -1))
	for _, k := range []int64{10, 9, 100, -1} {
		rel.MustInsert(relation.Row{value.Int(k)})
	}
	db := NewDB()
	db.MustRegister(rel)
	q := &algebra.Aggregate{
		Input:   &algebra.Scan{Relation: "N", As: "n"},
		GroupBy: []algebra.ColRef{{Var: "n", Col: "K"}},
		Terms:   []algebra.AggTerm{{Kind: algebra.AggCount, As: "c"}},
	}
	out, _, err := Run(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range out.Rows {
		got = append(got, r[0].AsInt())
	}
	if fmt.Sprint(got) != "[-1 9 10 100]" {
		t.Errorf("group order %v, want [-1 9 10 100]", got)
	}
}
