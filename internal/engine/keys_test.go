package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// The two reads of the server_mixed benchmark workload, as its clients
// send them.
const (
	pointText = `range of f is Faculty retrieve (f.Name, f.ValidFrom) where f.Rank = $1`
	wideText  = `range of a is X range of b is Y retrieve (XS=a.S, XFrom=a.ValidFrom, YS=b.S, YFrom=b.ValidFrom) where (a overlap b)`
)

const (
	skipNote = "distinct skipped: key "
	ranNote  = "distinct ran over "
)

// planText takes one quel statement to its optimized tree as the shell and
// the server do: parse, translate, bind, optimize under the DB's integrity
// constraints.
func planText(t testing.TB, db *DB, text string, params ...value.Value) algebra.Expr {
	t.Helper()
	prog, err := quel.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := quel.BindParams(&qs[0], params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

// mixedDB holds the server_mixed relations at test scale: Faculty with its
// rank order, and X and Y drawn as the wide read's inputs, registered out
// of ValidFrom order.
func mixedDB(t testing.TB, faculty, n int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.Register(workload.Faculty(workload.FacultyConfig{N: faculty, Seed: 1004})); err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	for _, c := range []struct {
		name string
		cfg  workload.Config
	}{
		{"X", workload.Config{N: n, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: 1001}},
		{"Y", workload.Config{N: n, Lambda: 1, MeanDur: 4, Seed: 1002}},
	} {
		ts := workload.Tuples(c.cfg, strings.ToLower(c.name))
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		if err := db.Register(relation.FromTuples(c.name, ts)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// projectNote returns the DISTINCT note of a run's project node.
func projectNote(t *testing.T, st *Stats) string {
	t.Helper()
	for _, n := range st.Nodes {
		if n.Algorithm != "project" {
			continue
		}
		for _, note := range n.Notes {
			if strings.HasPrefix(note, skipNote) || strings.HasPrefix(note, ranNote) {
				return note
			}
		}
	}
	t.Fatalf("no DISTINCT note on a project node:\n%s", st)
	return ""
}

// EXPLAIN ANALYZE of both server_mixed reads shows DISTINCT skipped on the
// keys that prove it, cold and warm; the Superstar, whose f2.ValidTo is no
// key, shows DISTINCT running.
func TestProjectKeyExplainNotes(t *testing.T) {
	db := mixedDB(t, 200, 100)
	for _, q := range []struct {
		name, text string
		params     []value.Value
		want       string
	}{
		{"point", pointText, []value.Value{value.String_("Full")}, skipNote + "Faculty(Name, ValidFrom)"},
		{"wide", wideText, nil, skipNote + "X(S, ValidFrom), Y(S, ValidFrom)"},
		{"superstar", superstarText, nil, ranNote},
	} {
		tree := planText(t, db, q.text, q.params...)
		for run := range 2 {
			tr := obs.NewTracer()
			res, _, err := Run(db, tree, Options{Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cardinality() == 0 {
				t.Fatalf("%s: no rows, a degenerate test", q.name)
			}
			if explain := tr.Tree(); !strings.Contains(explain, "· "+q.want) {
				t.Errorf("%s run %d: EXPLAIN ANALYZE lacks %q:\n%s", q.name, run, q.want, explain)
			}
		}
	}
}

// dedupOracle is set semantics computed apart from the engine's DISTINCT:
// it runs tree with its projection's Distinct cleared — a run that never
// asks for a key proof — and keeps the first row of each relation.AppendKey
// encoding. It returns the kept rows and how many rows the run returned.
func dedupOracle(t *testing.T, db *DB, tree algebra.Expr, opt Options) ([]relation.Row, int) {
	t.Helper()
	plain := algebra.CloneExpr(tree)
	plain.(*algebra.Project).Distinct = false
	res, _, err := Run(db, plain, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []relation.Row
	for _, r := range res.Rows {
		if k := string(relation.AppendKey(nil, r, nil)); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out, len(res.Rows)
}

// sameAsOracle runs tree and then the oracle, and holds the run's rows, in
// order, to the oracle's. It returns the run's DISTINCT note and whether
// the oracle dropped a duplicate.
func sameAsOracle(t *testing.T, label string, db *DB, tree algebra.Expr, opt Options) (note string, dups bool) {
	t.Helper()
	got, st, err := Run(db, tree, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, raw := dedupOracle(t, db, tree, opt)
	if len(got.Rows) != len(want) {
		t.Fatalf("%s: %d rows, the oracle %d (of %d):\n%s", label, len(got.Rows), len(want), raw, st)
	}
	for i := range want {
		if !bytes.Equal(relation.AppendKey(nil, got.Rows[i], nil), relation.AppendKey(nil, want[i], nil)) {
			t.Fatalf("%s: row %d is %s, the oracle's %s", label, i, got.Rows[i], want[i])
		}
	}
	return projectNote(t, st), raw > len(want)
}

// keyOptions are the executors a key proof must hold under: the columnar
// default, the row reference and the conventional nested loops.
var keyOptions = []struct {
	name string
	opt  Options
}{
	{"columnar", Options{}},
	{"RowExec", Options{RowExec: true}},
	{"nested-loop", Options{ForceNestedLoop: true}},
}

func tuple(s, v string, from, to interval.Time) relation.Tuple {
	return relation.Tuple{S: s, V: value.String_(v), Span: interval.Interval{Start: from, End: to}}
}

// surrogates are n tuples with unique surrogates, so (S, ValidFrom) is a
// key, whose lifespans overlap their neighbours'.
func surrogates(prefix string, n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = tuple(fmt.Sprintf("%s%02d", prefix, i), "v", interval.Time(i), interval.Time(i+3))
	}
	return out
}

func projectOf(in algebra.Expr, cols ...algebra.ColRef) *algebra.Project {
	p := &algebra.Project{Input: in, Distinct: true}
	for i, c := range cols {
		p.Cols = append(p.Cols, algebra.Output{Name: fmt.Sprintf("c%d", i), From: c})
	}
	return p
}

func ref(v, col string) algebra.ColRef { return algebra.ColRef{Var: v, Col: col} }

// overlapPred is the overlap of a's and b's lifespans as atoms, which the
// nested loop evaluates in place of the recognized kind.
func overlapPred(a, b string) algebra.Predicate {
	col := algebra.Column
	return algebra.Predicate{Atoms: []algebra.Atom{
		{L: col(a, "ValidFrom"), Op: algebra.LT, R: col(b, "ValidTo")},
		{L: col(b, "ValidFrom"), Op: algebra.LT, R: col(a, "ValidTo")},
	}}
}

func overlapJoin(l, r algebra.Expr, a, b string) *algebra.Join {
	return &algebra.Join{L: l, R: r, Pred: overlapPred(a, b), Kind: algebra.KindOverlap, LSpan: spanOf(a), RSpan: spanOf(b)}
}

func overlapSemijoin(l, r algebra.Expr, a, b string) *algebra.Semijoin {
	return &algebra.Semijoin{L: l, R: r, Pred: overlapPred(a, b), Kind: algebra.KindOverlap, LSpan: spanOf(a), RSpan: spanOf(b)}
}

// containedSelf is the self semijoin keeping a's tuples whose lifespan
// lies strictly within another tuple's of the same relation.
func containedSelf(rel, a, b string) *algebra.Semijoin {
	col := algebra.Column
	return &algebra.Semijoin{
		L: &algebra.Scan{Relation: rel, As: a}, R: &algebra.Scan{Relation: rel, As: b},
		Pred: algebra.Predicate{Atoms: []algebra.Atom{
			{L: col(b, "ValidFrom"), Op: algebra.LT, R: col(a, "ValidFrom")},
			{L: col(a, "ValidTo"), Op: algebra.LT, R: col(b, "ValidTo")},
		}},
		Kind: algebra.KindContained, LSpan: spanOf(a), RSpan: spanOf(b), Self: true,
	}
}

// pairSchema is a non-temporal relation, which an append never makes live.
var pairSchema = relation.MustSchema([]relation.Column{{Name: "K", Kind: value.KindString}, {Name: "N", Kind: value.KindInt}}, -1, -1)

// A DISTINCT projection over data that holds duplicates keeps DISTINCT and
// returns what the oracle returns, cold and warm, under every executor: the
// relation beneath it has two tuples alike on the projected columns, or
// takes them after its key fact was settled, or is one the proof never
// trusts (stored, live).
func TestProjectKeyDuplicatesKeepDistinct(t *testing.T) {
	scan := func(rel, as string) *algebra.Scan { return &algebra.Scan{Relation: rel, As: as} }
	// X's tuple 0 again, with another value: equal on S and ValidFrom.
	xDup := append(surrogates("x", 12), tuple("x00", "w", 0, 3))
	faculty := workload.Faculty(workload.FacultyConfig{N: 40, Seed: 7})
	first := faculty.Rows[0]
	// Faculty's row 0 again, ending later: same Name, Rank and ValidFrom.
	twin := relation.Row{first[0], first[1], first[2], value.TimeVal(first[3].AsTime() + 1)}
	// Surrogates that recur over time.
	reused := []relation.Tuple{
		tuple("s0", "v", 0, 4), tuple("s1", "v", 1, 3), tuple("s0", "v", 4, 9), tuple("s1", "v", 3, 8), tuple("s2", "v", 2, 6),
	}
	wide := projectOf(overlapJoin(scan("X", "a"), scan("Y", "b"), "a", "b"),
		ref("a", "S"), ref("a", "ValidFrom"), ref("b", "S"), ref("b", "ValidFrom"))
	keyed := projectOf(scan("X", "a"), ref("a", "S"), ref("a", "ValidFrom"))
	pairs := projectOf(scan("P", "p"), ref("p", "K"))

	cases := []struct {
		name    string
		rels    func() []*relation.Relation
		tree    func(db *DB) algebra.Expr
		live    []relation.Tuple           // appended to X before the cold run
		store   bool                       // X on a heap file
		clean   bool                       // no run holds a duplicate
		between func(t *testing.T, db *DB) // after the cold run
		skip    [2]bool                    // the cold and the warm run skip DISTINCT
	}{
		{name: "two X rows with equal S and ValidFrom",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", xDup), relation.FromTuples("Y", surrogates("y", 10))}
			},
			tree: func(*DB) algebra.Expr { return wide }},
		{name: "a Faculty member with two tuples at one ValidFrom",
			rels: func() []*relation.Relation {
				f := faculty.Clone()
				f.Rows = append(f.Rows, twin)
				return []*relation.Relation{f}
			},
			tree: func(db *DB) algebra.Expr { return planText(t, db, pointText, first[1]) }},
		{name: "a projection that drops the key",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", surrogates("x", 12))}
			},
			tree: func(*DB) algebra.Expr { return projectOf(scan("X", "a"), ref("a", "V")) }},
		{name: "a self-join on surrogates that recur",
			rels: func() []*relation.Relation { return []*relation.Relation{relation.FromTuples("X", reused)} },
			tree: func(*DB) algebra.Expr {
				return projectOf(overlapJoin(scan("X", "a"), scan("X", "b"), "a", "b"), ref("a", "S"), ref("b", "S"))
			}},
		{name: "a self semijoin on surrogates that recur",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", append(reused, tuple("s2", "v", 3, 5), tuple("s2", "v", 0, 9)))}
			},
			tree: func(*DB) algebra.Expr { return projectOf(containedSelf("X", "a", "b"), ref("a", "S")) }},
		{name: "an append after the fact, which makes X live",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", surrogates("x", 12))}
			},
			tree: func(*DB) algebra.Expr { return keyed },
			between: func(t *testing.T, db *DB) {
				if err := db.Append("X", relation.TupleToRow(tuple("x03", "w", 3, 5))); err != nil {
					t.Fatal(err)
				}
			},
			skip: [2]bool{true, false}},
		{name: "an append after the fact to a relation that never goes live",
			rels: func() []*relation.Relation {
				p := relation.New("P", pairSchema)
				p.Rows = []relation.Row{{value.String_("k0"), value.Int(0)}, {value.String_("k1"), value.Int(1)}}
				return []*relation.Relation{p}
			},
			tree: func(*DB) algebra.Expr { return pairs },
			between: func(t *testing.T, db *DB) {
				if err := db.Append("P", relation.Row{value.String_("k1"), value.Int(2)}); err != nil {
					t.Fatal(err)
				}
			},
			skip: [2]bool{true, false}},
		{name: "another relation registered under the name after the fact",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", surrogates("x", 12))}
			},
			tree: func(*DB) algebra.Expr { return keyed },
			between: func(t *testing.T, db *DB) {
				if err := db.Register(relation.FromTuples("X", xDup)); err != nil {
					t.Fatal(err)
				}
			},
			skip: [2]bool{true, false}},
		{name: "the same relation registered again after a change to its rows",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", surrogates("x", 12))}
			},
			tree: func(*DB) algebra.Expr { return keyed },
			between: func(t *testing.T, db *DB) {
				x, err := db.Relation("X")
				if err != nil {
					t.Fatal(err)
				}
				x.Rows[1] = relation.TupleToRow(tuple("x00", "w", 0, 2)) // the count and the first row stay
				if err := db.Register(x); err != nil {
					t.Fatal(err)
				}
			},
			skip: [2]bool{true, false}},
		{name: "a stored relation",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", xDup), relation.FromTuples("Y", surrogates("y", 10))}
			},
			tree:  func(*DB) algebra.Expr { return wide },
			store: true},
		{name: "a stored relation without duplicates",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.FromTuples("X", surrogates("x", 12)), relation.FromTuples("Y", surrogates("y", 10))}
			},
			tree:  func(*DB) algebra.Expr { return wide },
			store: true, clean: true},
		{name: "a live table",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.New("X", relation.TupleSchema), relation.FromTuples("Y", surrogates("y", 10))}
			},
			tree: func(*DB) algebra.Expr { return wide },
			live: xDup},
		{name: "a live table without duplicates",
			rels: func() []*relation.Relation {
				return []*relation.Relation{relation.New("X", relation.TupleSchema), relation.FromTuples("Y", surrogates("y", 10))}
			},
			tree: func(*DB) algebra.Expr { return wide },
			live: surrogates("x", 12), clean: true},
	}
	for _, c := range cases {
		for _, o := range keyOptions {
			db := NewDB()
			for _, r := range c.rels() {
				if err := db.Register(r); err != nil {
					t.Fatal(err)
				}
			}
			for _, tu := range c.live {
				if err := db.Append("X", relation.TupleToRow(tu)); err != nil {
					t.Fatal(err)
				}
			}
			if c.store {
				if err := db.StoreRelation("X", t.TempDir(), 4); err != nil {
					t.Fatal(err)
				}
			}
			tree := c.tree(db)
			var dups bool
			for run := range 2 {
				if run == 1 && c.between != nil {
					c.between(t, db)
				}
				label := fmt.Sprintf("%s, %s, run %d", c.name, o.name, run)
				note, d := sameAsOracle(t, label, db, tree, o.opt)
				dups = dups || d
				if skipped := strings.HasPrefix(note, skipNote); skipped != c.skip[run] {
					t.Errorf("%s: note %q, want a skip %v", label, note, c.skip[run])
				}
			}
			if dups == c.clean {
				t.Errorf("%s, %s: a duplicate %v, want %v", c.name, o.name, dups, !c.clean)
			}
			_ = db.Close()
		}
	}
}

// keyGen draws random plans over random small relations for the property
// test: scans, selections, overlap joins, products, overlap semijoins and
// self semijoins, each scan under a range variable of its own.
type keyGen struct {
	rng  *rand.Rand
	rels []string
	vars int
}

// relation draws a relation of up to 8 tuples whose surrogates are unique
// or drawn from five, with up to two duplicates injected: a copy of a
// tuple, whole or with another value.
func (g *keyGen) relation(name string) *relation.Relation {
	unique := g.rng.Intn(2) == 0
	ts := make([]relation.Tuple, 1+g.rng.Intn(8))
	for i := range ts {
		s := fmt.Sprintf("s%d", g.rng.Intn(5))
		if unique {
			s = fmt.Sprintf("u%d", i)
		}
		from := interval.Time(g.rng.Intn(6))
		ts[i] = tuple(s, fmt.Sprintf("v%d", g.rng.Intn(2)), from, from+1+interval.Time(g.rng.Intn(4)))
	}
	for range g.rng.Intn(3) {
		tu := ts[g.rng.Intn(len(ts))]
		if g.rng.Intn(2) == 0 {
			tu.V = value.String_("w")
		}
		ts = append(ts, tu)
	}
	return relation.FromTuples(name, ts)
}

func (g *keyGen) scan() (algebra.Expr, []string) {
	g.vars++
	v := fmt.Sprintf("r%d", g.vars)
	return &algebra.Scan{Relation: g.rels[g.rng.Intn(len(g.rels))], As: v}, []string{v}
}

// expr draws a plan of at most depth levels above its scans and returns
// it with its range variables in column order.
func (g *keyGen) expr(depth int) (algebra.Expr, []string) {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return g.scan()
	}
	switch g.rng.Intn(5) {
	case 0:
		in, vars := g.expr(depth - 1)
		v := vars[g.rng.Intn(len(vars))]
		atom := algebra.Atom{L: algebra.Column(v, "ValidFrom"), Op: algebra.GE, R: algebra.Const(value.TimeVal(interval.Time(g.rng.Intn(4))))}
		if g.rng.Intn(2) == 0 {
			atom = algebra.Atom{L: algebra.Column(v, "S"), Op: algebra.NE, R: algebra.Const(value.String_(fmt.Sprintf("s%d", g.rng.Intn(5))))}
		}
		return &algebra.Select{Input: in, Pred: algebra.Predicate{Atoms: []algebra.Atom{atom}}}, vars
	case 1:
		l, lv := g.expr(depth - 1)
		r, rv := g.expr(depth - 1)
		return overlapJoin(l, r, lv[0], rv[0]), append(lv, rv...)
	case 2:
		l, lv := g.expr(depth - 1)
		r, rv := g.expr(depth - 1)
		return &algebra.Product{L: l, R: r}, append(lv, rv...)
	case 3:
		l, lv := g.expr(depth - 1)
		r, rv := g.expr(depth - 1)
		return overlapSemijoin(l, r, lv[0], rv[0]), lv
	}
	g.vars += 2
	a, b := fmt.Sprintf("r%d", g.vars-1), fmt.Sprintf("r%d", g.vars)
	return containedSelf(g.rels[g.rng.Intn(len(g.rels))], a, b), []string{a}
}

// project draws a DISTINCT projection onto one to four columns of vars.
func (g *keyGen) project(in algebra.Expr, vars []string) *algebra.Project {
	cols := []string{"S", "V", "ValidFrom", "ValidTo"}
	refs := make([]algebra.ColRef, 1+g.rng.Intn(4))
	for i := range refs {
		refs[i] = ref(vars[g.rng.Intn(len(vars))], cols[g.rng.Intn(len(cols))])
	}
	return projectOf(in, refs...)
}

// Random plans over random small relations with injected duplicates, cold
// and warm under every executor, return what the oracle returns; both the
// skip and a DISTINCT that drops duplicates occur many times.
func TestProjectKeyPropertyAgainstOracle(t *testing.T) {
	g := &keyGen{rng: rand.New(rand.NewSource(4848)), rels: []string{"R0", "R1", "R2"}}
	var skipped, dropped int
	for c := range 300 {
		rels := make([]*relation.Relation, len(g.rels))
		for i, name := range g.rels {
			rels[i] = g.relation(name)
		}
		g.vars = 0
		tree := g.project(g.expr(3))
		for _, o := range keyOptions {
			db := NewDB()
			for _, r := range rels {
				if err := db.Register(r); err != nil {
					t.Fatal(err)
				}
			}
			for run := range 2 {
				note, dups := sameAsOracle(t, fmt.Sprintf("case %d %s, %s run %d", c, tree.Label(), o.name, run), db, tree, o.opt)
				if strings.HasPrefix(note, skipNote) {
					skipped++
				} else if dups {
					dropped++
				}
			}
		}
	}
	t.Logf("%d of %d runs skipped DISTINCT, %d dropped a duplicate", skipped, 300*2*len(keyOptions), dropped)
	if skipped < 100 || dropped < 100 {
		t.Errorf("%d runs skipped DISTINCT and %d dropped a duplicate, want 100 each", skipped, dropped)
	}
}

// factEntry returns the index entry of rel's key fact on the named columns.
func factEntry(db *DB, rel *relation.Relation, cols ...string) *indexEntry {
	var set uint64
	for _, c := range cols {
		set |= 1 << rel.Schema.ColumnIndex(c)
	}
	db.index.mu.Lock()
	defer db.index.mu.Unlock()
	return db.index.entries[keyFactKey(rel, set)]
}

// wideBytesPerRow bounds the heap bytes a warm wide read allocates per
// output row: 97.5 measured with DISTINCT skipped, plus 10 %. The sink's
// arena of four cells and its row header take 88 of them, the join's pair
// list about 8. Hashing every row — flat index vectors, kept positions,
// hashes and slots — took 130.4.
const wideBytesPerRow = 107

// The server_mixed wide read at test scale settles X's and Y's key facts
// once, on its cold run; its warm run is an index hit that hashes no row,
// counts what the cold run counts, and allocates within wideBytesPerRow.
func TestProjectKeySkipsDistinct(t *testing.T) {
	db := mixedDB(t, 40, 500)
	tree := planText(t, db, wideText)
	x, _ := db.Relation("X")
	y, _ := db.Relation("Y")

	cold, cst, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, fy := factEntry(db, x, "S", "ValidFrom"), factEntry(db, y, "S", "ValidFrom")
	if fx == nil || fy == nil || !fx.key || !fy.key {
		t.Fatalf("key facts after the cold run: X %+v, Y %+v", fx, fy)
	}
	used := fx.used
	warm, wst, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if factEntry(db, x, "S", "ValidFrom") != fx || factEntry(db, y, "S", "ValidFrom") != fy || fx.used == used {
		t.Errorf("the warm run did not read the cold run's key facts")
	}
	if note := projectNote(t, wst); note != skipNote+"X(S, ValidFrom), Y(S, ValidFrom)" {
		t.Errorf("warm note %q", note)
	}
	if !sameSequence(cold, warm) || cold.Cardinality() < 10000 {
		t.Fatalf("warm run returned %d rows, cold %d", warm.Cardinality(), cold.Cardinality())
	}
	if cst.TotalComparisons() != wst.TotalComparisons() || cst.TotalTuplesRead() != wst.TotalTuplesRead() || cst.MaxWorkspace() != wst.MaxWorkspace() {
		t.Errorf("warm counts differ: comparisons %d/%d, tuples read %d/%d, workspace %d/%d",
			wst.TotalComparisons(), cst.TotalComparisons(), wst.TotalTuplesRead(), cst.TotalTuplesRead(), wst.MaxWorkspace(), cst.MaxWorkspace())
	}
	got := allocated(func() {
		if _, _, err := Run(db, tree, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := float64(got) / float64(warm.Cardinality()); perRow > wideBytesPerRow {
		t.Errorf("warm wide read allocates %.1f B per output row, budget %d", perRow, wideBytesPerRow)
	} else {
		t.Logf("warm wide read: %.1f B per output row over %d rows", perRow, warm.Cardinality())
	}
}

// Eight queries on one cold DB settle the key facts concurrently: each
// returns the rows a serial run returns, and each notes the skip.
func TestProjectKeyConcurrentFirstUse(t *testing.T) {
	ref := mixedDB(t, 200, 100)
	point, wideTree := planText(t, ref, pointText, value.String_("Full")), planText(t, ref, wideText)
	want := map[algebra.Expr]*relation.Relation{}
	for _, tree := range []algebra.Expr{point, wideTree} {
		res, _, err := Run(ref, tree, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[tree] = res
	}
	db := mixedDB(t, 200, 100)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := range 8 {
		tree := point
		if i%2 == 1 {
			tree = wideTree
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, st, err := Run(db, tree, Options{})
			switch {
			case err != nil:
				errs <- err
			case !sameSequence(res, want[tree]):
				errs <- fmt.Errorf("query %d: %d rows, the serial run %d", i, res.Cardinality(), want[tree].Cardinality())
			case !hasNote(st, skipNote):
				errs <- fmt.Errorf("query %d did not skip DISTINCT: %v", i, st.Nodes)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
