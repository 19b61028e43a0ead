package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

const indexNote = "from endpoint index"

// indexHits counts the orders a run took from the endpoint index.
func indexHits(st *Stats) int {
	hits := 0
	for _, n := range st.Nodes {
		for _, note := range n.Notes {
			if strings.Contains(note, indexNote) {
				hits++
			}
		}
	}
	return hits
}

// sameWork requires two runs of one tree to return the same row sequence
// and the same comparisons, tuples read and workspace.
func sameWork(t *testing.T, name string, want, got *relation.Relation, wst, gst *Stats) {
	t.Helper()
	identicalRows(t, name, want, got)
	if wst.TotalComparisons() != gst.TotalComparisons() || wst.TotalTuplesRead() != gst.TotalTuplesRead() ||
		wst.MaxWorkspace() != gst.MaxWorkspace() {
		t.Fatalf("%s: counts differ:\n%s\nvs\n%s", name, gst, wst)
	}
}

// A warm run takes every base order from the index: the same rows and the
// same work as the cold run that built the entries, with nothing sorted.
func TestOrderIndexWarmRunRepeatsColdRun(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	xs, ys := tiedTuples(rng, 600, "x"), tiedTuples(rng, 500, "y")
	for _, q := range orderedQueries() {
		for name, opt := range map[string]Options{"serial": colOpt(), "RowExec": rowOpt()} {
			db := tiedDB(t, xs, ys)
			cold, cst, err := Run(db, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, wst, err := Run(db, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := q.name + " " + name
			sameWork(t, label, cold, warm, cst, wst)
			if wst.TotalSortedRows() != 0 {
				t.Errorf("%s: warm run sorted %d rows", label, wst.TotalSortedRows())
			}
			if !q.sequenced {
				continue
			}
			if cst.TotalSortedRows() == 0 || indexHits(cst) != 0 {
				t.Errorf("%s: cold run sorted %d rows, %d index hits", label, cst.TotalSortedRows(), indexHits(cst))
			}
			if indexHits(wst) != 2 {
				t.Errorf("%s: warm run took %d orders from the index, want 2:\n%v", label, indexHits(wst), wst.Nodes)
			}
		}
	}
}

// runFresh runs tree over a DB that has never seen a query, registering
// copies of rels.
func runFresh(t *testing.T, tree algebra.Expr, opt Options, rels ...*relation.Relation) (*relation.Relation, *Stats) {
	t.Helper()
	db := NewDB()
	for _, r := range rels {
		if err := db.Register(r.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	out, st, err := Run(db, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// entriesOf counts the index entries of rel.
func entriesOf(db *DB, rel *relation.Relation) int {
	db.index.mu.Lock()
	defer db.index.mu.Unlock()
	n := 0
	for k := range db.index.entries {
		if k.rel == rel {
			n++
		}
	}
	return n
}

// Replacing a relation forgets its orders, and so does registering the
// same relation again after its rows were reordered in place — a change
// neither the row count nor the first row's address shows.
func TestOrderIndexReplacedRelationNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x := relation.FromTuples("X", tiedTuples(rng, 300, "x"))
	y := relation.FromTuples("Y", tiedTuples(rng, 250, "y"))
	db := NewDB()
	db.MustRegister(x)
	db.MustRegister(y)
	q := semijoinOf(algebra.KindContain)
	for i := 0; i < 2; i++ {
		if _, _, err := Run(db, q, colOpt()); err != nil {
			t.Fatal(err)
		}
	}
	if entriesOf(db, x) == 0 {
		t.Fatal("no entry for X after two runs")
	}

	x2 := relation.FromTuples("X", tiedTuples(rng, 300, "z"))
	db.MustRegister(x2)
	if n := entriesOf(db, x); n != 0 {
		t.Fatalf("replaced X keeps %d entries", n)
	}
	got, gst, err := Run(db, q, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	want, wst := runFresh(t, q, colOpt(), x2, y)
	sameWork(t, "replaced X", want, got, wst, gst)

	x2.Sort(relation.Order{relation.TEDesc})
	db.MustRegister(x2)
	got, gst, err = Run(db, q, colOpt())
	if err != nil {
		t.Fatal(err)
	}
	want, wst = runFresh(t, q, colOpt(), x2, y)
	sameWork(t, "X reordered in place and registered again", want, got, wst, gst)
	if indexHits(gst) != 1 {
		t.Errorf("reordered X: %d index hits, want Y's alone", indexHits(gst))
	}
}

// Rows added through DB.Append or by growing Rows directly are never
// missed: Append drops the relation's orders and keeps it out of the index
// from then on, and direct growth fails the entry's row-count check, so
// the next run sorts afresh and keeps the new order.
func TestOrderIndexRebuildsAfterGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	x := relation.FromTuples("X", tiedTuples(rng, 300, "x"))
	y := relation.FromTuples("Y", tiedTuples(rng, 250, "y"))
	db := NewDB()
	db.MustRegister(x)
	db.MustRegister(y)
	q := semijoinOf(algebra.KindOverlap)
	for i := 0; i < 2; i++ {
		if _, _, err := Run(db, q, colOpt()); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, wantHits int) {
		t.Helper()
		got, gst, err := Run(db, q, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, wst := runFresh(t, q, colOpt(), x, y)
		sameWork(t, name, want, got, wst, gst)
		if indexHits(gst) != wantHits {
			t.Errorf("%s: %d index hits, want %d", name, indexHits(gst), wantHits)
		}
	}

	// Direct growth: Y's entry no longer matches, so Y sorts again.
	for _, tu := range tiedTuples(rng, 40, "g") {
		y.Rows = append(y.Rows, relation.TupleToRow(tu))
	}
	check("Y grown directly", 1)
	check("Y grown directly, warm", 2)

	// Append: X's entry is dropped and X stays out of the index.
	for _, tu := range tiedTuples(rng, 30, "a") {
		if err := db.Append("X", relation.TupleToRow(tu)); err != nil {
			t.Fatal(err)
		}
	}
	if n := entriesOf(db, x); n != 0 {
		t.Fatalf("appended X keeps %d entries", n)
	}
	check("X appended", 1)
	check("X appended, again", 1)
	if n := entriesOf(db, x); n != 0 {
		t.Errorf("appended X entered the index: %d entries", n)
	}
}

// Only a base scan's order is kept: a selection, a join output feeding a
// semijoin and a stored key scan sort on every run, while the base scan
// beside them is served.
func TestOrderIndexDerivedInputsNeverHit(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	xs, ys := tiedTuples(rng, 400, "x"), tiedTuples(rng, 300, "y")
	col := algebra.Column
	selected := &algebra.Semijoin{
		L: &algebra.Select{
			Input: &algebra.Scan{Relation: "X", As: "a"},
			Pred:  algebra.Predicate{Atoms: []algebra.Atom{{L: col("a", "ValidFrom"), Op: algebra.GE, R: algebra.Const(value.TimeVal(0))}}},
		},
		R:     &algebra.Scan{Relation: "Y", As: "b"},
		Kind:  algebra.KindContain,
		LSpan: spanOf("a"), RSpan: spanOf("b"),
	}
	joined := &algebra.Semijoin{
		L:     joinOf(algebra.KindOverlap),
		R:     &algebra.Scan{Relation: "Y", As: "c"},
		Kind:  algebra.KindOverlap,
		LSpan: spanOf("a"), RSpan: spanOf("c"),
	}
	for _, c := range []struct {
		name string
		tree algebra.Expr
		hits int // orders served on a warm run
	}{
		{"selection input", selected, 1},
		{"join output input", joined, 3},
	} {
		db := tiedDB(t, xs, ys)
		if _, _, err := Run(db, c.tree, colOpt()); err != nil {
			t.Fatal(err)
		}
		_, st, err := Run(db, c.tree, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		if indexHits(st) != c.hits {
			t.Errorf("%s: %d index hits, want %d:\n%s", c.name, indexHits(st), c.hits, st)
		}
		top := st.Nodes[len(st.Nodes)-1]
		if top.SortedRows == 0 {
			t.Errorf("%s: the derived input was not sorted:\n%s", c.name, st)
		}
	}

	stored := storedTiedDB(t, xs, ys, func(int64) int { return 2 })
	for i := 0; i < 2; i++ {
		_, st, err := Run(stored, semijoinOf(algebra.KindContain), colOpt())
		if err != nil {
			t.Fatal(err)
		}
		if indexHits(st) != 0 || st.TotalSortedRows() == 0 || !planMentions(st, "stored key scan") {
			t.Errorf("stored run %d: %d index hits, %d rows sorted:\n%s", i, indexHits(st), st.TotalSortedRows(), st)
		}
	}
}

// The index stays within its byte budget however many relations pass
// through it, evicting the least recently used orders first.
func TestOrderIndexBudgetHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const rows = 50
	db := NewDB()
	entry := int64(20 * rows) // endpoint columns and permutation of one order
	db.index.budget = 10*entry + entry/2
	var rels []*relation.Relation
	for i := 0; i < 100; i++ {
		rel := relation.FromTuples(fmt.Sprintf("R%d", i), tiedTuples(rng, rows, "r"))
		db.MustRegister(rel)
		rels = append(rels, rel)
	}
	for i := 1; i < len(rels); i++ {
		q := &algebra.Semijoin{
			L:     &algebra.Scan{Relation: rels[i-1].Name, As: "a"},
			R:     &algebra.Scan{Relation: rels[i].Name, As: "b"},
			Kind:  algebra.KindContain,
			LSpan: spanOf("a"), RSpan: spanOf("b"),
		}
		got, _, err := Run(db, q, colOpt())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runFresh(t, q, colOpt(), rels[i-1], rels[i])
		identicalRows(t, q.Label(), want, got)
		db.index.mu.Lock()
		var sum int64
		for _, e := range db.index.entries {
			sum += e.bytes
		}
		n, bytes := len(db.index.entries), db.index.bytes
		db.index.mu.Unlock()
		if bytes > db.index.budget || sum != bytes || n > 10 {
			t.Fatalf("after %d queries: %d entries, %d bytes (sum %d) against a budget of %d",
				i, n, bytes, sum, db.index.budget)
		}
		if entriesOf(db, rels[i-1]) == 0 || entriesOf(db, rels[i]) == 0 {
			t.Fatalf("query %d: the orders it just used were evicted", i)
		}
	}
	if entriesOf(db, rels[0]) != 0 {
		t.Error("the least recently used relation is still indexed")
	}
}

// Queries running concurrently on one DB share its index, orders and
// column codes: each run, cold or warm, returns the rows a run alone
// returns. Run it under -race.
func TestOrderIndexConcurrentRuns(t *testing.T) {
	db := NewDB()
	for i, name := range []string{"X", "Y"} {
		tu := workload.Tuples(workload.Config{N: 800, Lambda: 1, MeanDur: 12, Seed: int64(41 + i)}, strings.ToLower(name))
		rand.New(rand.NewSource(int64(i))).Shuffle(len(tu), func(a, b int) { tu[a], tu[b] = tu[b], tu[a] })
		db.MustRegister(relation.FromTuples(name, tu))
	}
	queries := orderedQueries()
	for _, q := range codedQueries("Y") {
		queries = append(queries, orderedQuery{name: q.name, tree: q.tree})
	}
	want := make([]*relation.Relation, len(queries))
	for i, q := range queries {
		x, _ := db.Relation("X")
		y, _ := db.Relation("Y")
		want[i], _ = runFresh(t, q.tree, colOpt(), x, y)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := range len(queries) {
				i := (g + r) % len(queries)
				opt := colOpt()
				if g%2 == 1 {
					opt = rowOpt()
				}
				got, _, err := Run(db, queries[i].tree, opt)
				if err == nil && !sameSequence(want[i], got) {
					err = fmt.Errorf("%s: goroutine %d got a different row sequence", queries[i].name, g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameSequence reports whether two results hold equal rows in equal order.
func sameSequence(a, b *relation.Relation) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			return false
		}
	}
	return true
}

// FuzzOrderIndex interleaves Register, Append, direct row growth and Run
// over two small relations, and holds every Run to a run of the same tree
// over a fresh DB holding the same rows: the same row sequence and the
// same comparisons, tuples read and workspace. The trees are the ordered
// operators, whose base orders the index serves, and a col = const
// selection and a self equi-join of each relation, which its column codes
// serve.
func FuzzOrderIndex(f *testing.F) {
	f.Add([]byte{0, 5, 5, 5, 1, 5, 2, 5, 3, 5, 4, 5})
	f.Add([]byte{5, 6, 7, 8, 9, 1, 1, 6, 2, 2, 7, 0, 8, 3, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		db := NewDB()
		rels := map[string]*relation.Relation{}
		register := func(name string) {
			rel := relation.FromTuples(name, tiedTuples(rng, 1+rng.Intn(40), strings.ToLower(name)))
			db.MustRegister(rel)
			rels[name] = rel
		}
		register("X")
		register("Y")
		var queries []orderedQuery
		queries = append(queries, orderedQueries()...)
		for _, name := range []string{"X", "Y"} {
			for _, q := range codedQueries(name) {
				if q.name == "σ 5 = ValidFrom ∧ ValidTo ≤ 7" || q.name == "self-join of selections, residual" {
					queries = append(queries, orderedQuery{name: name + " " + q.name, tree: q.tree})
				}
			}
		}
		for _, op := range ops {
			name := []string{"X", "Y"}[op&1]
			switch op % 10 {
			case 0, 1:
				register(name)
			case 2, 3:
				row := relation.TupleToRow(tiedTuples(rng, 1, "p")[0])
				if err := db.Append(name, row); err != nil {
					t.Fatal(err)
				}
			case 4:
				rels[name].Rows = append(rels[name].Rows, relation.TupleToRow(tiedTuples(rng, 1, "d")[0]))
			default:
				q := queries[int(op/10)%len(queries)]
				opt := colOpt()
				if op&1 == 1 {
					opt = rowOpt()
				}
				got, gst, err := Run(db, q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, wst := runFresh(t, q.tree, opt, rels["X"], rels["Y"])
				sameWork(t, q.name, want, got, wst, gst)
			}
		}
	})
}

// The contain-semijoin over 40 000 shuffled rows a side: the cold
// benchmark registers both relations and runs the first query, reporting
// that query's time alone as query-ns/op; the warm one runs the query
// again over orders the index already holds.
func orderIndexBench(tb testing.TB) (*DB, []*relation.Relation) {
	tb.Helper()
	db := NewDB()
	var rels []*relation.Relation
	for i, name := range []string{"X", "Y"} {
		tu := workload.Tuples(workload.Config{N: 40000, Lambda: 1, MeanDur: 30, LongFrac: 0.05, Seed: int64(50 + i)}, strings.ToLower(name))
		rand.New(rand.NewSource(int64(60+i))).Shuffle(len(tu), func(a, c int) { tu[a], tu[c] = tu[c], tu[a] })
		rel := relation.FromTuples(name, tu)
		if err := db.Register(rel); err != nil {
			tb.Fatal(err)
		}
		rels = append(rels, rel)
	}
	return db, rels
}

var orderIndexSink *relation.Relation

func BenchmarkOrderIndex_Cold(b *testing.B) {
	db, rels := orderIndexBench(b)
	q := semijoinOf(algebra.KindContain)
	opt := Options{}
	var query time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rel := range rels {
			if err := db.Register(rel); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		out, _, err := Run(db, q, opt)
		query += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		orderIndexSink = out
	}
	b.ReportMetric(float64(query.Nanoseconds())/float64(b.N), "query-ns/op")
}

func BenchmarkOrderIndex_Warm(b *testing.B) {
	db, _ := orderIndexBench(b)
	opt := Options{}
	q := semijoinOf(algebra.KindContain)
	if _, _, err := Run(db, q, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Run(db, q, opt)
		if err != nil {
			b.Fatal(err)
		}
		orderIndexSink = out
	}
}

// superstarBench registers Faculty — 20 000 members and the Rank
// chron-order — in a new DB and returns the DB, the relation and the
// optimized plan of the paper's running query over it.
func superstarBench(tb testing.TB) (*DB, *relation.Relation, algebra.Expr) {
	tb.Helper()
	db := NewDB()
	fac := workload.Faculty(workload.FacultyConfig{N: 20000, Seed: 1004})
	if err := db.Register(fac); err != nil {
		tb.Fatal(err)
	}
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		tb.Fatal(err)
	}
	prog, err := quel.Parse(superstarText)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := optimizer.Optimize(qs[0].Tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		tb.Fatal(err)
	}
	return db, fac, res.Tree
}

// The Superstar's first run after Faculty is registered: the index holds
// nothing of it, so the run builds the column codes and orders it uses.
// query-ns/op is the run's time alone, without the Register.
func BenchmarkSuperstar_Cold(b *testing.B) {
	db, fac, tree := superstarBench(b)
	opt := Options{}
	var query time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Register(fac); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		out, _, err := Run(db, tree, opt)
		query += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		orderIndexSink = out
	}
	b.ReportMetric(float64(query.Nanoseconds())/float64(b.N), "query-ns/op")
}

// The Superstar run again over what the index already holds.
func BenchmarkSuperstar_Warm(b *testing.B) {
	db, _, tree := superstarBench(b)
	opt := Options{}
	if _, _, err := Run(db, tree, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Run(db, tree, opt)
		if err != nil {
			b.Fatal(err)
		}
		orderIndexSink = out
	}
}
