package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

const (
	selectNote = "σ from column index"
	joinNote   = "hash on column codes"
)

// notesOf counts the nodes of a run that carry note.
func notesOf(st *Stats, note string) int {
	n := 0
	for _, c := range st.Nodes {
		for _, s := range c.Notes {
			if s == note {
				n++
			}
		}
	}
	return n
}

type codedQuery struct {
	name           string
	tree           algebra.Expr
	selects, joins int
}

// codedQueries are the plans the column codes serve over relation rel
// (tiedTuples rows): equality selections on a time and a string column,
// with the constant on either side and with a conjunct left to test, and
// self equi-joins on ValidFrom, over the scans and over selections of
// them, beside plans the codes do not serve. selects and joins count the nodes a warm run serves.
func codedQueries(rel string) []codedQuery {
	col := algebra.Column
	scan := func(as string) algebra.Expr { return &algebra.Scan{Relation: rel, As: as} }
	at := func(t interval.Time) algebra.Operand { return algebra.Const(value.TimeVal(t)) }
	atom := func(l algebra.Operand, op algebra.CmpOp, r algebra.Operand) algebra.Atom {
		return algebra.Atom{L: l, Op: op, R: r}
	}
	sel := func(in algebra.Expr, atoms ...algebra.Atom) algebra.Expr {
		return &algebra.Select{Input: in, Pred: algebra.Predicate{Atoms: atoms}}
	}
	join := func(l, r algebra.Expr, atoms ...algebra.Atom) algebra.Expr {
		return &algebra.Join{L: l, R: r, Pred: algebra.Predicate{Atoms: atoms}}
	}
	sameStart := atom(col("a", "ValidFrom"), algebra.EQ, col("b", "ValidFrom"))
	return []codedQuery{
		{"σ ValidFrom = 3", sel(scan("a"), atom(col("a", "ValidFrom"), algebra.EQ, at(3))), 1, 0},
		{"σ 5 = ValidFrom ∧ ValidTo ≤ 7", sel(scan("a"), atom(col("a", "ValidTo"), algebra.LE, at(7)), atom(at(5), algebra.EQ, col("a", "ValidFrom"))), 1, 0},
		{"σ S = x007 ∧ V = v", sel(scan("a"), atom(col("a", "S"), algebra.EQ, algebra.Const(value.String_("x007"))), atom(col("a", "V"), algebra.EQ, algebra.Const(value.String_("v")))), 1, 0},
		{"σ ValidFrom = 99, no row", sel(scan("a"), atom(col("a", "ValidFrom"), algebra.EQ, at(99))), 1, 0},
		{"self-join on ValidFrom", join(scan("a"), scan("b"), sameStart), 0, 1},
		{"self-join of selections, residual", join(
			sel(scan("a"), atom(col("a", "ValidTo"), algebra.GE, at(4))),
			sel(scan("b"), atom(col("b", "ValidFrom"), algebra.EQ, at(2))),
			atom(col("b", "ValidTo"), algebra.LE, col("a", "ValidTo")), sameStart), 1, 1},
		{"join on two columns", join(scan("a"), scan("b"), atom(col("b", "ValidTo"), algebra.EQ, col("a", "ValidTo")), sameStart), 0, 0},
		{"join of two columns", join(scan("a"), scan("b"), atom(col("a", "ValidFrom"), algebra.EQ, col("b", "ValidTo"))), 0, 0},
		{"σ of σ", sel(sel(scan("a"), atom(col("a", "ValidTo"), algebra.GE, at(4))), atom(col("a", "ValidFrom"), algebra.EQ, at(3))), 0, 0},
	}
}

// A warm run of every coded query returns what a run over a fresh DB
// returns, with the same counts, and its served nodes say so; the cold run
// that builds the codes is served too.
func TestColumnCodesServeWarmRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x := relation.FromTuples("X", tiedTuples(rng, 500, "x"))
	for _, q := range codedQueries("X") {
		for name, opt := range map[string]Options{"serial": colOpt(), "RowExec": rowOpt(), "nested-loop": {ForceNestedLoop: true}} {
			db := NewDB()
			db.MustRegister(x)
			want, wst := runFresh(t, q.tree, opt, x)
			for run := range 2 {
				got, gst, err := Run(db, q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %s run %d", q.name, name, run)
				sameWork(t, label, want, got, wst, gst)
				if notesOf(gst, selectNote) != q.selects || notesOf(gst, joinNote) != q.joins {
					t.Errorf("%s: %d served selections and %d served joins, want %d and %d:\n%v",
						label, notesOf(gst, selectNote), notesOf(gst, joinNote), q.selects, q.joins, gst.Nodes)
				}
			}
		}
	}
}

// An equi-join across two relations keeps the map, however alike their
// columns: each relation's codes number its own values.
func TestColumnCodesOnlyKeySelfJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	x := relation.FromTuples("X", tiedTuples(rng, 300, "x"))
	y := relation.FromTuples("Y", tiedTuples(rng, 200, "y"))
	db := NewDB()
	db.MustRegister(x)
	db.MustRegister(y)
	eq := algebra.Atom{L: algebra.Column("a", "ValidFrom"), Op: algebra.EQ, R: algebra.Column("b", "ValidFrom")}
	tree := &algebra.Join{
		L:    &algebra.Scan{Relation: "X", As: "a"},
		R:    &algebra.Select{Input: &algebra.Scan{Relation: "Y", As: "b"}, Pred: algebra.Predicate{Atoms: []algebra.Atom{{L: algebra.Column("b", "ValidTo"), Op: algebra.EQ, R: algebra.Const(value.TimeVal(6))}}}},
		Pred: algebra.Predicate{Atoms: []algebra.Atom{eq}},
	}
	want, wst := runFresh(t, tree, colOpt(), x, y)
	for run := range 2 {
		got, gst, err := Run(db, tree, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		sameWork(t, fmt.Sprintf("X ⋈ σ(Y) run %d", run), want, got, wst, gst)
		if notesOf(gst, joinNote) != 0 || notesOf(gst, selectNote) != 1 {
			t.Fatalf("run %d: %v", run, gst.Nodes)
		}
	}
}

// The warm Superstar over Faculty 20 000 reads its three Rank selections
// off the column codes and chains its Name self-join by them. Before the
// codes it allocated 2.85 MB per run, hashing a key string per joined row
// and collecting each selection's positions by comparing every Rank.
func TestSuperstarWarmRunUsesColumnCodes(t *testing.T) {
	db, fac, tree := superstarBench(t)
	opt := Options{}
	want, wst := runFresh(t, tree, opt, fac)
	if _, _, err := Run(db, tree, opt); err != nil {
		t.Fatal(err)
	}
	got, gst, err := Run(db, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameWork(t, "warm Superstar", want, got, wst, gst)
	if len(got.Rows) == 0 || notesOf(gst, selectNote) != 3 || notesOf(gst, joinNote) != 1 {
		t.Fatalf("%d rows, %d served selections, %d served joins; want 3 and 1:\n%v",
			len(got.Rows), notesOf(gst, selectNote), notesOf(gst, joinNote), gst.Nodes)
	}
	const bound = 2_000_000
	if b := allocated(func() {
		if _, _, err := Run(db, tree, opt); err != nil {
			t.Fatal(err)
		}
	}); b > bound {
		t.Errorf("warm Superstar allocates %d B per run, bound %d B", b, bound)
	}
}

// codesServed counts the served selections and joins of a run.
func codesServed(st *Stats) int { return notesOf(st, selectNote) + notesOf(st, joinNote) }

// No column's codes outlive the rows they were built from: after a
// replacing Register, a Register of the same relation reordered in place,
// direct growth of its rows, DB.Append and StoreRelation, every run
// returns what a fresh DB returns, and the codes are rebuilt or bypassed.
func TestColumnCodesNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	x := relation.FromTuples("X", tiedTuples(rng, 300, "x"))
	db := NewDB()
	db.MustRegister(x)
	queries := codedQueries("X")
	check := func(step string, served bool) {
		t.Helper()
		for _, q := range queries {
			got, gst, err := Run(db, q.tree, colOpt())
			if err != nil {
				t.Fatal(err)
			}
			want, wst := runFresh(t, q.tree, colOpt(), x)
			sameWork(t, step+": "+q.name, want, got, wst, gst)
			if n := codesServed(gst); (n > 0) != served && q.selects+q.joins > 0 {
				t.Errorf("%s: %s served %d nodes from codes, want served=%v", step, q.name, n, served)
			}
		}
	}
	check("cold", true)
	check("warm", true)
	if entriesOf(db, x) == 0 {
		t.Fatal("no entry for X")
	}

	old := x
	x = relation.FromTuples("X", tiedTuples(rng, 300, "z"))
	db.MustRegister(x)
	if n := entriesOf(db, old); n != 0 {
		t.Fatalf("replaced X keeps %d entries", n)
	}
	check("replaced", true)

	x.Sort(relation.Order{relation.TEDesc})
	db.MustRegister(x)
	check("reordered in place and registered again", true)

	for _, tu := range tiedTuples(rng, 20, "g") {
		x.Rows = append(x.Rows, relation.TupleToRow(tu))
	}
	check("grown directly", true)

	if err := db.Append("X", relation.TupleToRow(tiedTuples(rng, 1, "p")[0])); err != nil {
		t.Fatal(err)
	}
	if n := entriesOf(db, x); n != 0 {
		t.Fatalf("appended X keeps %d entries", n)
	}
	check("appended", false)

	y := relation.FromTuples("X", tiedTuples(rng, 300, "y"))
	sdb := NewDB()
	sdb.MustRegister(y)
	for range 2 {
		if _, _, err := Run(sdb, queries[0].tree, colOpt()); err != nil {
			t.Fatal(err)
		}
	}
	rows := y.Rows
	if err := sdb.StoreRelation("X", t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sdb.Close() })
	if n := entriesOf(sdb, y); n != 0 {
		t.Fatalf("stored X keeps %d entries", n)
	}
	for _, q := range queries {
		got, gst, err := Run(sdb, q.tree, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runFresh(t, q.tree, colOpt(), &relation.Relation{Name: "X", Schema: y.Schema, Rows: rows})
		identicalRows(t, "stored: "+q.name, want, got)
		if codesServed(gst) != 0 {
			t.Errorf("stored: %s served from codes", q.name)
		}
	}
}

// Served selections and self-joins return the rows of the same plans over
// a stored copy of the relations, which no index serves, under every
// Options variant; the Superstar over Faculty and the coded queries both.
func TestColumnCodesMatchStoredCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	xs := tiedTuples(rng, 400, "x")
	fac := workload.Faculty(workload.FacultyConfig{N: 600, Seed: 84})
	superstar := func(db *DB) algebra.Expr {
		if err := db.DeclareChronOrder(rankIC(false)); err != nil {
			t.Fatal(err)
		}
		return optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})
	}
	mem, stored := NewDB(), NewDB()
	for _, db := range []*DB{mem, stored} {
		db.MustRegister(relation.FromTuples("X", xs))
		db.MustRegister(fac.Clone())
	}
	plans := map[string]algebra.Expr{"Superstar": superstar(mem)}
	superstar(stored)
	for _, q := range codedQueries("X") {
		plans[q.name] = q.tree
	}
	for _, name := range []string{"X", "Faculty"} {
		if err := stored.StoreRelation(name, t.TempDir(), 8); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { _ = stored.Close() })
	variants := map[string]Options{
		"default":             {},
		"nested-loop":         {ForceNestedLoop: true},
		"nested-loop-no-hash": {ForceNestedLoop: true, ForceNoHash: true},
		"verify-order":        {VerifyOrder: true},
		"row-exec":            {RowExec: true},
		"govern":              {GovernWorkspace: true},
		"spill":               {SortMemRows: 8, SpillDir: t.TempDir()},
	}
	served := map[string]int{}
	for pname, plan := range plans {
		for vname, opt := range variants {
			for run := range 2 {
				got, gst, err := Run(mem, plan, opt)
				if err != nil {
					t.Fatalf("%s %s: %v", pname, vname, err)
				}
				want, _, err := Run(stored, plan, opt)
				if err != nil {
					t.Fatalf("%s %s stored: %v", pname, vname, err)
				}
				identicalRows(t, fmt.Sprintf("%s %s run %d", pname, vname, run), want, got)
				served[vname] += codesServed(gst)
			}
		}
	}
	for vname := range variants {
		if served[vname] == 0 {
			t.Errorf("%s: no run was served from column codes", vname)
		}
	}
}

// The budget holds with both kinds of entry: codes and orders of many
// relations share it, the least recently used going first, and a relation
// whose codes could not fit is never coded but still answered.
func TestRelationIndexBudgetHoldsWithCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const rows = 60
	db := NewDB()
	db.index.budget = 8 << 10
	var rels []*relation.Relation
	for i := range 40 {
		rel := relation.FromTuples(fmt.Sprintf("R%d", i), tiedTuples(rng, rows, "r"))
		db.MustRegister(rel)
		rels = append(rels, rel)
	}
	for i, rel := range rels {
		qs := slices.DeleteFunc(codedQueries(rel.Name), func(q codedQuery) bool { return q.selects+q.joins == 0 })
		tree := qs[i%len(qs)].tree
		if i%3 == 0 {
			tree = &algebra.Semijoin{
				L:     &algebra.Scan{Relation: rel.Name, As: "a"},
				R:     &algebra.Scan{Relation: rels[max(i-1, 0)].Name, As: "b"},
				Kind:  algebra.KindContain,
				LSpan: spanOf("a"), RSpan: spanOf("b"),
			}
		}
		got, _, err := Run(db, tree, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runFresh(t, tree, colOpt(), rel, rels[max(i-1, 0)])
		identicalRows(t, tree.Label(), want, got)
		db.index.mu.Lock()
		var sum int64
		for _, e := range db.index.entries {
			sum += e.bytes
		}
		bytes := db.index.bytes
		db.index.mu.Unlock()
		if bytes > db.index.budget || sum != bytes {
			t.Fatalf("after query %d: %d bytes (sum %d) against a budget of %d", i, bytes, sum, db.index.budget)
		}
		if entriesOf(db, rel) == 0 {
			t.Fatalf("query %d: the entries it just built were evicted", i)
		}
	}
	if entriesOf(db, rels[0]) != 0 {
		t.Error("the least recently used relation is still indexed")
	}

	big := relation.FromTuples("Big", tiedTuples(rng, 2000, "b"))
	db.MustRegister(big)
	db.index.budget = 4 * 2000
	q := codedQueries("Big")[0]
	for range 2 {
		got, st, err := Run(db, q.tree, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runFresh(t, q.tree, colOpt(), big)
		identicalRows(t, "over budget", want, got)
		if codesServed(st) != 0 || entriesOf(db, big) != 0 {
			t.Fatalf("a relation over the budget was coded: %v", st.Nodes)
		}
	}
}

// A served selection's positions are the codes' own list, shared with
// every later query: nothing downstream may write it. Two selections over
// the same code, one picked further by a semijoin, leave it as built.
func TestServedPositionsStayReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	x := relation.FromTuples("X", tiedTuples(rng, 400, "x"))
	y := relation.FromTuples("Y", tiedTuples(rng, 300, "y"))
	db := NewDB()
	db.MustRegister(x)
	db.MustRegister(y)
	at3 := algebra.Predicate{Atoms: []algebra.Atom{{L: algebra.Column("a", "ValidFrom"), Op: algebra.EQ, R: algebra.Const(value.TimeVal(3))}}}
	tree := &algebra.Semijoin{
		L:     &algebra.Select{Input: &algebra.Scan{Relation: "X", As: "a"}, Pred: at3},
		R:     &algebra.Scan{Relation: "Y", As: "b"},
		Kind:  algebra.KindOverlap,
		LSpan: spanOf("a"), RSpan: spanOf("b"),
	}
	want, _ := runFresh(t, tree, colOpt(), x, y)
	c := db.index.codes(x, x.Schema.TS)
	built := slices.Clone(c.rows)
	for _, opt := range []Options{colOpt(), rowOpt(), {ForceNestedLoop: true}} {
		got, st, err := Run(db, tree, opt)
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, "served selection under a semijoin", want, got)
		if notesOf(st, selectNote) != 1 {
			t.Fatalf("selection not served: %v", st.Nodes)
		}
	}
	if !slices.Equal(built, c.rows) {
		t.Fatal("a run wrote the codes' shared row list")
	}
}
