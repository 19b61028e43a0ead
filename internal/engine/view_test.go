package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// superstarText is the paper's running query as the shell takes it.
const superstarText = `range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve (Name=f1.Name, ValidFrom=f1.ValidFrom, ValidTo=f2.ValidTo)
where f3.Rank="Associate" and f1.Name=f2.Name and f1.Rank="Assistant"
  and f2.Rank="Full" and (f1 overlap f3) and (f2 overlap f3)`

// The optimized Superstar plan — three selections, a hash equi-join, a
// stream semijoin and a DISTINCT project — builds rows only at its
// project. Its bytes per run stay below what the plan's own cardinalities
// allow for the row references and the one sink arena. The parent of the
// change that made intermediates views measured 1 692 872 B per run here,
// building every intermediate as rows; the bound is about 770 000 B.
func TestSuperstarBuildsRowsOnce(t *testing.T) {
	db := NewDB()
	if err := db.Register(workload.Faculty(workload.FacultyConfig{N: 4000, Seed: 1004})); err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	prog, err := quel.Parse(superstarText)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(qs[0].Tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		t.Fatal(err)
	}
	tree := opt.Tree
	run := func() *Stats {
		_, st, err := Run(db, tree, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run()

	var filters []obs.Node
	var hash, semi, proj *obs.Node
	for i := range st.Nodes {
		switch n := &st.Nodes[i]; {
		case n.Algorithm == "filter":
			filters = append(filters, *n)
		case n.Algorithm == "hash equi-join":
			hash = n
		case strings.Contains(n.Algorithm, "semijoin"):
			semi = n
		case n.Algorithm == "project":
			proj = n
		}
	}
	if len(filters) != 3 || hash == nil || semi == nil || proj == nil || proj.OutRows == 0 {
		t.Fatalf("unexpected plan:\n%s", st)
	}
	var sel int64
	for _, f := range filters {
		sel += 4 * f.Probe.ReadLeft // one int32 per selection input row
	}
	build, probe := hash.Probe.ReadLeft, hash.Probe.ReadRight
	table := 96 * build            // chain links, table slot and key string per build row
	pairs := 8 * max(build, probe) // the pair list's first chunk
	left, right := hash.OutRows, filters[2].OutRows
	sweep := 32*left + 16*right + 8*semi.OutRows // flattened indexes, lifespans, permutation, emitted and composed positions
	distinct := 128 * proj.Probe.ReadLeft        // the seen-key set and the kept positions
	sink := (3*16 + 24) * proj.OutRows           // one arena of three cells a row, and the row headers
	// A quarter more for map load factors, plus per-node bookkeeping.
	bound := uint64(sel+table+pairs+sweep+distinct+sink)*5/4 + 32<<10

	if got := allocated(func() { run() }); got > bound {
		t.Errorf("Superstar run allocates %d B, bound %d B (selection vectors %d, hash table %d, pair list %d, semijoin %d, distinct %d, sink %d)",
			got, bound, sel, table, pairs, sweep, distinct, sink)
	}
}

// A columnar semijoin never reads a right row, so its right input is
// ordered as columns alone: with the left input already in order, the
// run's bytes are both inputs' lifespans, the emitted positions and the
// sink's row headers, plus bookkeeping. A right permutation would add
// four bytes per right row, past the slack.
func TestSemijoinRightInputHasNoPermutation(t *testing.T) {
	const n = 20000
	db := NewDB()
	for _, side := range []struct {
		name string
		seed int64
	}{{"X", 41}, {"Y", 42}} {
		ts := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 20, LongFrac: 0.2, Seed: side.seed}, side.name)
		if err := db.Register(relation.FromTuples(side.name, ts)); err != nil {
			t.Fatal(err)
		}
	}
	// The contain-semijoin wants its left input in ValidFrom order, which
	// the relation has, and its right input in ValidTo order, which it
	// does not.
	q := semijoinOf(algebra.KindContain)
	res, st, err := Run(db, q, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalSortedRows() != n {
		t.Fatalf("degenerate test: want the right input sorted and the left not\n%s", st)
	}
	ref, _, err := Run(db, q, rowOpt())
	if err != nil {
		t.Fatal(err)
	}
	identicalRows(t, "contain-semijoin", ref, res)
	out := uint64(len(res.Rows))
	bound := 16*n + 16*n + 4*n + 24*out + 48<<10
	if got := allocated(func() {
		if _, _, err := Run(db, q, colOpt()); err != nil {
			t.Fatal(err)
		}
	}); got > bound {
		t.Errorf("columnar semijoin allocates %d B, bound %d B without a right permutation", got, bound)
	}
}

// The sink polls Options.Interrupt once per buildEvery rows it builds: a
// join whose output goes straight to the sink shows one poll per
// buildEvery rows beyond its three node boundaries (the sweeps do not
// poll), so a cause that arrives just after a poll stops the run within
// buildEvery further rows, inside the 2 × 8 192 bound. A hook that fires
// mid-build ends the run at that poll with ErrInterrupted wrapping the
// cause.
func TestSinkPollsInterruptWhileBuilding(t *testing.T) {
	db := NewDB()
	if err := db.Register(relation.FromTuples("X", chunkyTuples("x", 200, 200, 0))); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(relation.FromTuples("Y", chunkyTuples("y", 200, 200, 1))); err != nil {
		t.Fatal(err)
	}
	const nodes = 3
	q := joinOf(algebra.KindContain)
	for _, tc := range []struct {
		name string
		opt  Options
	}{{"columnar", colOpt()}, {"RowExec", rowOpt()}} {
		opt := tc.opt
		polls := 0
		opt.Interrupt = func() error { polls++; return nil }
		res, _, err := Run(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		n, sink := len(res.Rows), polls-nodes
		if n < 4*buildEvery {
			t.Fatalf("%s: degenerate test, %d rows span fewer than four poll intervals", tc.name, n)
		}
		if sink*buildEvery < n {
			t.Fatalf("%s: the sink polled %d times for %d rows, more than %d rows apart", tc.name, sink, n, buildEvery)
		}

		cause := errors.New("client went away")
		fire, calls := nodes+sink/2, 0
		opt.Interrupt = func() error {
			if calls++; calls >= fire {
				return cause
			}
			return nil
		}
		res, _, err = Run(db, q, opt)
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, cause) || res != nil {
			t.Fatalf("%s: fired mid-build: res %v, err %v; want ErrInterrupted wrapping the cause", tc.name, res, err)
		}
		if calls != fire {
			t.Fatalf("%s: %d polls after the hook fired, want the run to stop at it", tc.name, calls-fire)
		}
	}
}

// spareCapDB registers X and Y, whose rows carry spare capacity holding a
// sentinel past their length: a sink row that aliased a base row would
// overwrite it on append.
func spareCapDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	for _, side := range []struct {
		name string
		seed int64
	}{{"X", 51}, {"Y", 52}} {
		rel := relation.New(side.name, relation.TupleSchema)
		for _, tu := range workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 6, LongFrac: 0.2, Seed: side.seed}, side.name) {
			row := append(make(relation.Row, 0, 6), relation.TupleToRow(tu)...)
			full := row[:6]
			full[4], full[5] = sentinel, sentinel
			rel.MustInsert(row)
		}
		db.MustRegister(rel)
	}
	return db
}

var sentinel = value.Int(424242)

// checkNoAlias appends to every result row and checks the base rows'
// spare cells still hold the sentinel.
func checkNoAlias(t *testing.T, name string, db *DB, res *relation.Relation) {
	t.Helper()
	for _, row := range res.Rows {
		_ = append(row, value.Int(-1), value.Int(-1))
	}
	for _, rn := range []string{"X", "Y"} {
		rel, err := db.Relation(rn)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rel.Rows {
			if full := row[:cap(row)]; !full[4].Equal(sentinel) || !full[5].Equal(sentinel) {
				t.Fatalf("%s: appending to a sink row wrote into %s row %d", name, rn, i)
			}
		}
	}
}

// Views at their edges — selections that keep nothing or everything, a
// three-part view, DISTINCT over a multi-part view, an aggregate and a
// before-join over views — give the same rows under every executor: the
// same sequence wherever the executor fixes the order (the nested loop
// emits joins in its own order, so it is held to the same row set), nil
// for an empty result, and sink rows that never alias a base row.
func TestViewEdgeCasesAcrossExecutors(t *testing.T) {
	db := spareCapDB(t, 60)
	col, str := algebra.Column, func(s string) algebra.Operand { return algebra.Const(value.String_(s)) }
	scan := func(rel, as string) algebra.Expr { return &algebra.Scan{Relation: rel, As: as} }
	atom := func(l algebra.Operand, op algebra.CmpOp, r algebra.Operand) algebra.Atom {
		return algebra.Atom{L: l, Op: op, R: r}
	}
	overlap := func(l, r algebra.Expr, lv, rv string) algebra.Expr {
		return &algebra.Join{L: l, R: r, Kind: algebra.KindOverlap, LSpan: spanOf(lv), RSpan: spanOf(rv),
			Pred: algebra.Predicate{Atoms: []algebra.Atom{
				atom(col(lv, "ValidFrom"), algebra.LT, col(rv, "ValidTo")),
				atom(col(rv, "ValidFrom"), algebra.LT, col(lv, "ValidTo")),
			}}}
	}
	sel := func(in algebra.Expr, atoms ...algebra.Atom) algebra.Expr {
		return &algebra.Select{Input: in, Pred: algebra.Predicate{Atoms: atoms}}
	}
	xy := overlap(scan("X", "a"), scan("Y", "b"), "a", "b")
	cases := []struct {
		name    string
		q       algebra.Expr
		ordered bool // every executor emits the same sequence
		empty   bool
	}{
		{"select keeps nothing", sel(scan("X", "a"), atom(col("a", "V"), algebra.EQ, str("no such value"))), true, true},
		{"select keeps everything", sel(scan("X", "a"), atom(col("a", "ValidFrom"), algebra.LT, col("a", "ValidTo"))), true, false},
		{"join → select → join", overlap(
			sel(xy, atom(col("a", "ValidFrom"), algebra.LT, col("b", "ValidFrom"))),
			scan("Y", "c"), "b", "c"), false, false},
		{"distinct over a join", &algebra.Project{Input: xy, Distinct: true, Cols: []algebra.Output{
			{Name: "AV", From: col("a", "V").Col}, {Name: "BV", From: col("b", "V").Col},
			{Name: "BS", From: col("b", "S").Col},
		}}, false, false},
		{"aggregate over a join", &algebra.Aggregate{Input: xy, GroupBy: []algebra.ColRef{col("a", "V").Col},
			Terms: []algebra.AggTerm{
				{Kind: algebra.AggCount, As: "n"},
				{Kind: algebra.AggMax, Of: col("b", "ValidTo").Col, As: "last"},
			}}, true, false},
		{"before-join over a selection", &algebra.Join{
			L:    sel(scan("X", "a"), atom(col("a", "V"), algebra.NE, str("v1"))),
			R:    scan("Y", "b"),
			Kind: algebra.KindBefore,
			LSpan: algebra.SpanRef{
				TS: algebra.ColRef{Var: "a", Col: "ValidTo"}, TE: algebra.ColRef{Var: "a", Col: "ValidTo"},
			},
			RSpan: spanOf("b"),
			Pred:  algebra.Predicate{Atoms: []algebra.Atom{atom(col("a", "ValidTo"), algebra.LT, col("b", "ValidFrom"))}},
		}, false, false},
	}
	executors := []struct {
		name string
		opt  Options
	}{
		{"default", Options{VerifyOrder: true}},
		{"RowExec", rowOpt()},
		{"ForceNestedLoop", Options{ForceNestedLoop: true}},
		{"GovernWorkspace", Options{GovernWorkspace: true}},
		{"SortMemRows", Options{SortMemRows: 16, SpillDir: t.TempDir(), VerifyOrder: true}},
	}
	keys := func(rel *relation.Relation) []string {
		out := make([]string, len(rel.Rows))
		for i, r := range rel.Rows {
			out[i] = r.Key()
		}
		return out
	}
	for _, tc := range cases {
		ref, _, err := Run(db, tc.q, executors[0].opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.empty != (len(ref.Rows) == 0) {
			t.Fatalf("%s: degenerate test, %d rows", tc.name, len(ref.Rows))
		}
		want := keys(ref)
		sorted := slices.Sorted(slices.Values(want))
		for _, ex := range executors {
			name := fmt.Sprintf("%s under %s", tc.name, ex.name)
			got, _, err := Run(db, tc.q, ex.opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got.Rows) == 0 && got.Rows != nil {
				t.Errorf("%s: empty result is not nil", name)
			}
			g := keys(got)
			if !tc.ordered && ex.opt.ForceNestedLoop {
				g, want = slices.Sorted(slices.Values(g)), sorted
			}
			if !slices.Equal(g, want) {
				t.Errorf("%s: %d rows differ from the default executor's %d", name, len(g), len(want))
			}
			want = keys(ref)
			checkNoAlias(t, name, db, got)
		}
	}
}
