package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/constraints"
	"tdb/internal/interval"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

func newFacultyDB(t *testing.T, n int, continuous bool) *DB {
	t.Helper()
	db := NewDB()
	rel := workload.Faculty(workload.FacultyConfig{N: n, Continuous: continuous, Seed: 77})
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	return db
}

func rankIC(continuous bool) constraints.ChronOrder {
	return constraints.ChronOrder{
		Relation: "Faculty", KeyCol: "Name", ValCol: "Rank",
		Order:      []string{"Assistant", "Associate", "Full"},
		Continuous: continuous,
	}
}

// superstarQuery builds the paper's running query with temporal sugar.
func superstarQuery() algebra.Expr {
	col := algebra.Column
	cons := func(s string) algebra.Operand { return algebra.Const(value.String_(s)) }
	theta := algebra.Predicate{
		Atoms: []algebra.Atom{
			{L: col("f1", "Name"), Op: algebra.EQ, R: col("f2", "Name")},
			{L: col("f1", "Rank"), Op: algebra.EQ, R: cons("Assistant")},
			{L: col("f2", "Rank"), Op: algebra.EQ, R: cons("Full")},
			{L: col("f3", "Rank"), Op: algebra.EQ, R: cons("Associate")},
		},
		Temporal: []algebra.TemporalAtom{
			{L: "f1", R: "f3", General: true},
			{L: "f2", R: "f3", General: true},
		},
	}
	prod := &algebra.Product{
		L: &algebra.Product{
			L: &algebra.Scan{Relation: "Faculty", As: "f1"},
			R: &algebra.Scan{Relation: "Faculty", As: "f2"},
		},
		R: &algebra.Scan{Relation: "Faculty", As: "f3"},
	}
	return &algebra.Project{
		Input: &algebra.Select{Input: prod, Pred: theta},
		Cols: []algebra.Output{
			{Name: "Name", From: algebra.ColRef{Var: "f1", Col: "Name"}},
			{Name: "ValidFrom", From: algebra.ColRef{Var: "f1", Col: "ValidFrom"}},
			{Name: "ValidTo", From: algebra.ColRef{Var: "f2", Col: "ValidTo"}},
		},
		TSName: "ValidFrom", TEName: "ValidTo",
		Distinct: true,
	}
}

func rowSet(rel *relation.Relation) []string {
	keys := make([]string, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return keys
}

func sameRows(t *testing.T, name string, a, b *relation.Relation) {
	t.Helper()
	ka, kb := rowSet(a), rowSet(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d vs %d rows", name, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: row sets differ at %d: %q vs %q", name, i, ka[i], kb[i])
		}
	}
}

func optimize(t *testing.T, db *DB, q algebra.Expr, opt optimizer.Options) algebra.Expr {
	t.Helper()
	res, err := optimizer.Optimize(q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contradiction {
		t.Fatal("unexpected contradiction")
	}
	return res.Tree
}

// The central end-to-end equivalence: the Superstar query computes the same
// answer under (A) conventional execution without semantic optimization,
// (B) semantically optimized stream execution, and the answer is non-empty.
func TestSuperstarPlansAgree(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	q := superstarQuery()

	// Plan A: conventional — no semantic pass, no recognition, nested loops.
	treeA := optimize(t, db, q, optimizer.Options{NoSemantic: true, NoRecognition: true})
	resA, statsA, err := Run(db, treeA, Options{ForceNestedLoop: true})
	if err != nil {
		t.Fatal(err)
	}

	// Plan B: full pipeline with stream semijoin.
	treeB := optimize(t, db, q, optimizer.Options{ICs: db.ChronOrders()})
	resB, statsB, err := Run(db, treeB, Options{VerifyOrder: true})
	if err != nil {
		t.Fatal(err)
	}

	if resA.Cardinality() == 0 {
		t.Fatal("superstar result empty; workload too thin to be meaningful")
	}
	sameRows(t, "superstar", resA, resB)

	// The stream plan does strictly fewer comparisons than the
	// conventional plan (which scans the inner per outer tuple).
	if statsB.TotalComparisons() >= statsA.TotalComparisons() {
		t.Errorf("stream plan comparisons %d not below conventional %d",
			statsB.TotalComparisons(), statsA.TotalComparisons())
	}
	// The recognized semijoin actually ran as a stream algorithm.
	found := false
	for _, nc := range statsB.Nodes {
		if strings.Contains(nc.Algorithm, "contained-semijoin") {
			found = true
			if nc.Probe.StateHighWater != 0 {
				t.Errorf("Fig 6 semijoin retained state: %d", nc.Probe.StateHighWater)
			}
		}
	}
	if !found {
		t.Errorf("no stream semijoin in plan B:\n%s", statsB)
	}
}

// Every recognized temporal join kind agrees with the nested-loop result.
func TestTemporalJoinKindsAgainstNestedLoop(t *testing.T) {
	db := NewDB()
	mk := func(name string, seed int64, n int) {
		rel := relation.FromTuples(name, workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 8, Seed: seed}, name))
		rel.Name = name
		db.MustRegister(rel)
	}
	mk("R", 1, 120)
	mk("S", 2, 150)

	col := algebra.Column
	patterns := map[string]algebra.Predicate{
		"contain": {Atoms: []algebra.Atom{
			{L: col("r", "ValidFrom"), Op: algebra.LT, R: col("s", "ValidFrom")},
			{L: col("s", "ValidTo"), Op: algebra.LT, R: col("r", "ValidTo")},
		}},
		"contained": {Atoms: []algebra.Atom{
			{L: col("s", "ValidFrom"), Op: algebra.LT, R: col("r", "ValidFrom")},
			{L: col("r", "ValidTo"), Op: algebra.LT, R: col("s", "ValidTo")},
		}},
		"overlap": {Atoms: []algebra.Atom{
			{L: col("r", "ValidFrom"), Op: algebra.LT, R: col("s", "ValidTo")},
			{L: col("s", "ValidFrom"), Op: algebra.LT, R: col("r", "ValidTo")},
		}},
		"before": {Atoms: []algebra.Atom{
			{L: col("r", "ValidTo"), Op: algebra.LT, R: col("s", "ValidFrom")},
		}},
	}
	for name, pred := range patterns {
		q := &algebra.Select{
			Input: &algebra.Product{
				L: &algebra.Scan{Relation: "R", As: "r"},
				R: &algebra.Scan{Relation: "S", As: "s"},
			},
			Pred: pred,
		}
		tree := optimize(t, db, q, optimizer.Options{})
		// The recognized kind must not be θ.
		if j, ok := tree.(*algebra.Join); !ok || j.Kind == algebra.KindTheta {
			t.Fatalf("%s: not recognized (%T)", name, tree)
		}
		streamRes, streamStats, err := Run(db, tree, Options{VerifyOrder: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nlRes, _, err := Run(db, tree, Options{ForceNestedLoop: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, name, streamRes, nlRes)
		if streamRes.Cardinality() == 0 {
			t.Errorf("%s: empty result, workload too thin", name)
		}
		// The stream join reads each input once.
		for _, nc := range streamStats.Nodes {
			if strings.Contains(nc.Algorithm, "stream") && nc.Probe.Passes > 1 {
				t.Errorf("%s: stream algorithm took %d passes", name, nc.Probe.Passes)
			}
		}
	}
}

// Semijoin kinds against nested loop.
func TestTemporalSemijoinKindsAgainstNestedLoop(t *testing.T) {
	db := NewDB()
	r := relation.FromTuples("R", workload.Tuples(workload.Config{N: 150, Lambda: 1, MeanDur: 6, Seed: 3}, "r"))
	r.Name = "R"
	s := relation.FromTuples("S", workload.Tuples(workload.Config{N: 100, Lambda: 0.7, MeanDur: 14, Seed: 4}, "s"))
	s.Name = "S"
	db.MustRegister(r)
	db.MustRegister(s)

	col := algebra.Column
	preds := map[string]algebra.Predicate{
		"contained": {Atoms: []algebra.Atom{
			{L: col("a", "ValidFrom"), Op: algebra.GT, R: col("b", "ValidFrom")},
			{L: col("a", "ValidTo"), Op: algebra.LT, R: col("b", "ValidTo")},
		}},
		"contain": {Atoms: []algebra.Atom{
			{L: col("a", "ValidFrom"), Op: algebra.LT, R: col("b", "ValidFrom")},
			{L: col("b", "ValidTo"), Op: algebra.LT, R: col("a", "ValidTo")},
		}},
		"overlap": {Atoms: []algebra.Atom{
			{L: col("a", "ValidFrom"), Op: algebra.LT, R: col("b", "ValidTo")},
			{L: col("b", "ValidFrom"), Op: algebra.LT, R: col("a", "ValidTo")},
		}},
		"before": {Atoms: []algebra.Atom{
			{L: col("a", "ValidTo"), Op: algebra.LT, R: col("b", "ValidFrom")},
		}},
	}
	for name, pred := range preds {
		q := &algebra.Project{
			Input: &algebra.Select{
				Input: &algebra.Product{
					L: &algebra.Scan{Relation: "R", As: "a"},
					R: &algebra.Scan{Relation: "S", As: "b"},
				},
				Pred: pred,
			},
			Cols: []algebra.Output{
				{Name: "S", From: algebra.ColRef{Var: "a", Col: "S"}},
				{Name: "ValidFrom", From: algebra.ColRef{Var: "a", Col: "ValidFrom"}},
				{Name: "ValidTo", From: algebra.ColRef{Var: "a", Col: "ValidTo"}},
			},
			TSName: "ValidFrom", TEName: "ValidTo",
			Distinct: true,
		}
		tree := optimize(t, db, q, optimizer.Options{})
		semi, ok := tree.(*algebra.Project).Input.(*algebra.Semijoin)
		if !ok {
			t.Fatalf("%s: no semijoin introduced", name)
		}
		if semi.Kind == algebra.KindTheta {
			t.Fatalf("%s: semijoin not classified", name)
		}
		streamRes, _, err := Run(db, tree, Options{VerifyOrder: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nlRes, _, err := Run(db, tree, Options{ForceNestedLoop: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, name, streamRes, nlRes)
		if streamRes.Cardinality() == 0 {
			t.Errorf("%s: empty result", name)
		}
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	db := newFacultyDB(t, 30, false)
	col := algebra.Column
	q := &algebra.Select{
		Input: &algebra.Product{
			L: &algebra.Scan{Relation: "Faculty", As: "a"},
			R: &algebra.Scan{Relation: "Faculty", As: "b"},
		},
		Pred: algebra.Predicate{Atoms: []algebra.Atom{
			{L: col("a", "Name"), Op: algebra.EQ, R: col("b", "Name")},
			{L: col("a", "ValidFrom"), Op: algebra.LT, R: col("b", "ValidFrom")},
		}},
	}
	tree := optimize(t, db, q, optimizer.Options{})
	hashRes, hashStats, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nlRes, nlStats, err := Run(db, tree, Options{ForceNestedLoop: true, ForceNoHash: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "equi-join", hashRes, nlRes)
	if hashRes.Cardinality() == 0 {
		t.Fatal("empty equi-join result")
	}
	if hashStats.TotalComparisons() >= nlStats.TotalComparisons() {
		t.Errorf("hash join comparisons %d not below nested loop %d",
			hashStats.TotalComparisons(), nlStats.TotalComparisons())
	}
	usedHash := false
	for _, nc := range hashStats.Nodes {
		if nc.Algorithm == "hash equi-join" {
			usedHash = true
		}
	}
	if !usedHash {
		t.Error("hash join not used")
	}
}

// A probe row without a partner allocates nothing, so the hash join
// allocates the same at 1x and 4x probe size.
func TestHashJoinProbeDoesNotAllocate(t *testing.T) {
	schema := relation.MustSchema([]relation.Column{
		{Name: "K", Kind: value.KindString}, {Name: "N", Kind: value.KindInt}}, -1, -1)
	side := func(prefix string, n int) *result {
		rows := make([]relation.Row, n)
		for i := range rows {
			rows[i] = relation.Row{value.String_(fmt.Sprintf("%s%d", prefix, i)), value.Int(int64(i))}
		}
		return &result{schema: schema, v: rowsView(rows, schema.Arity())}
	}
	build := side("build", 64)
	ex := &executor{db: NewDB(), stats: &Stats{}}
	allocs := func(probe *result) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := ex.hashJoin(build, probe, []int{0, 1}, []int{0, 1}, algebra.Predicate{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a4 := allocs(side("probe", 256)), allocs(side("probe", 1024)); a1 != a4 {
		t.Errorf("hash join allocates %.0f at 256 probe rows, %.0f at 1024", a1, a4)
	}
}

// The hash equi-join's key must match exactly when the nested loop's
// equality does: composite string keys that a separator-joined rendering
// would collide, and an Int key equal to a Time key ("∞" when rendered).
func TestHashJoinKeysAreExact(t *testing.T) {
	rel := func(t *testing.T, name string, kinds []value.Kind, row ...value.Value) *relation.Relation {
		t.Helper()
		cols := make([]relation.Column, len(kinds))
		for i, k := range kinds {
			cols[i] = relation.Column{Name: fmt.Sprintf("K%d", i), Kind: k}
		}
		s, err := relation.NewSchema(cols, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		r := relation.New(name, s)
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
		return r
	}
	str := []value.Kind{value.KindString, value.KindString}
	cases := []struct {
		name string
		l, r *relation.Relation
		want int
	}{
		{"separator inside a string cell",
			rel(t, "A", str, value.String_("x\x1fy"), value.String_("z")),
			rel(t, "B", str, value.String_("x"), value.String_("y\x1fz")), 0},
		{"int key equals time key",
			rel(t, "A", []value.Kind{value.KindInt}, value.Int(int64(interval.Forever))),
			rel(t, "B", []value.Kind{value.KindTime}, value.TimeVal(interval.Forever)), 1},
	}
	for _, tc := range cases {
		db := NewDB()
		db.MustRegister(tc.l)
		db.MustRegister(tc.r)
		var pred algebra.Predicate
		for _, c := range tc.l.Schema.Cols {
			pred.Atoms = append(pred.Atoms, algebra.Atom{
				L: algebra.Column("a", c.Name), Op: algebra.EQ, R: algebra.Column("b", c.Name)})
		}
		q := &algebra.Join{
			L:    &algebra.Scan{Relation: "A", As: "a"},
			R:    &algebra.Scan{Relation: "B", As: "b"},
			Pred: pred, Kind: algebra.KindTheta,
		}
		hashRes, hashStats, err := Run(db, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(hashStats.String(), "hash equi-join") {
			t.Fatalf("%s: hash join not used:\n%s", tc.name, hashStats)
		}
		nlRes, _, err := Run(db, q, Options{ForceNestedLoop: true, ForceNoHash: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hashRes.Cardinality(); got != tc.want || nlRes.Cardinality() != tc.want {
			t.Errorf("%s: hash join %d rows, nested loop %d, want %d", tc.name, got, nlRes.Cardinality(), tc.want)
		}
	}
}

func TestProjectDistinctAndSpans(t *testing.T) {
	db := newFacultyDB(t, 10, false)
	q := &algebra.Project{
		Input:    &algebra.Scan{Relation: "Faculty", As: "f"},
		Cols:     []algebra.Output{{Name: "Rank", From: algebra.ColRef{Var: "f", Col: "Rank"}}},
		Distinct: true,
	}
	res, _, err := Run(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() > 3 {
		t.Errorf("distinct ranks = %d", res.Cardinality())
	}
	if res.Schema.Temporal() {
		t.Error("snapshot projection kept temporal designation")
	}
}

// distinctRows keeps exactly the rows a seen-set of AppendKey strings
// keeps, in order, whatever the duplicate rate and the projected columns.
func TestDistinctRowsMatchesSeenSet(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 7, 3000} {
		for _, kinds := range []int{2, 40, 5000} {
			rows := make([]relation.Row, n)
			for i := range rows {
				rows[i] = relation.Row{value.String_(fmt.Sprint("s", rng.Intn(kinds))), value.Int(int64(rng.Intn(kinds))), value.TimeVal(interval.Time(rng.Intn(3)))}
			}
			for _, idx := range [][]int{{0}, {1, 2}, {2, 0}, {0, 1, 2}} {
				seen := map[string]bool{}
				var want []int32
				for i, r := range rows {
					if k := string(relation.AppendKey(nil, r, idx)); !seen[k] {
						seen[k] = true
						want = append(want, int32(i))
					}
				}
				if got := distinctRows(rowsView(rows, 3), idx); !slices.Equal(got, want) {
					t.Fatalf("n %d, %d kinds, columns %v: kept %d rows, the seen-set %d", n, kinds, idx, len(got), len(want))
				}
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	db := newFacultyDB(t, 5, false)
	if _, _, err := Run(db, &algebra.Scan{Relation: "Nope"}, Options{}); err == nil {
		t.Error("unknown relation accepted")
	}
	badPred := &algebra.Select{
		Input: &algebra.Scan{Relation: "Faculty", As: "f"},
		Pred: algebra.Predicate{Atoms: []algebra.Atom{
			{L: algebra.Column("f", "Missing"), Op: algebra.EQ, R: algebra.Const(value.Int(1))},
		}},
	}
	if _, _, err := Run(db, badPred, Options{}); err == nil {
		t.Error("unknown predicate column accepted")
	}
	sugar := &algebra.Select{
		Input: &algebra.Scan{Relation: "Faculty", As: "f"},
		Pred:  algebra.Predicate{Temporal: []algebra.TemporalAtom{{L: "f", R: "f", General: true}}},
	}
	if _, _, err := Run(db, sugar, Options{}); err == nil {
		t.Error("unexpanded temporal atom accepted")
	}
}

func TestDeclareChronOrderValidation(t *testing.T) {
	db := newFacultyDB(t, 20, true)
	if err := db.DeclareChronOrder(rankIC(true)); err != nil {
		t.Fatalf("valid continuous constraint rejected: %v", err)
	}

	// A relation violating the ordering must reject the declaration.
	bad := relation.New("Faculty2", workload.FacultySchema)
	bad.MustInsert(relation.Row{value.String_("x"), value.String_("Full"), value.TimeVal(0), value.TimeVal(5)})
	bad.MustInsert(relation.Row{value.String_("x"), value.String_("Assistant"), value.TimeVal(5), value.TimeVal(9)})
	db.MustRegister(bad)
	ic := rankIC(false)
	ic.Relation = "Faculty2"
	if err := db.DeclareChronOrder(ic); err == nil {
		t.Error("violated ordering accepted")
	}

	// Unknown value outside the declared order.
	bad2 := relation.New("Faculty3", workload.FacultySchema)
	bad2.MustInsert(relation.Row{value.String_("x"), value.String_("Emeritus"), value.TimeVal(0), value.TimeVal(5)})
	db.MustRegister(bad2)
	ic.Relation = "Faculty3"
	if err := db.DeclareChronOrder(ic); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestStatsRendering(t *testing.T) {
	db := newFacultyDB(t, 10, false)
	_, stats, err := Run(db, &algebra.Scan{Relation: "Faculty", As: "f"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 1 || stats.Nodes[0].Algorithm != "scan" {
		t.Fatalf("stats nodes: %+v", stats.Nodes)
	}
	if !strings.Contains(stats.String(), "scan") {
		t.Error("stats rendering empty")
	}
	if stats.TotalTuplesRead() == 0 {
		t.Error("no tuples counted")
	}
}

// Interesting orders: a second stream join over the same sorted relation
// re-sorts nothing when the base data is already in ValidFrom order.
func TestSortAvoidance(t *testing.T) {
	db := NewDB()
	tu := workload.Tuples(workload.Config{N: 100, Lambda: 1, MeanDur: 9, Seed: 9}, "r")
	rel := relation.FromTuples("R", tu) // generator emits in TS order
	rel.Name = "R"
	db.MustRegister(rel)
	if !relation.SortedSpans(tu, func(t relation.Tuple) interval.Interval { return t.Span }, relation.Order{relation.TSAsc}) {
		t.Fatal("workload no longer arrives sorted; test premise broken")
	}
	col := algebra.Column
	q := &algebra.Select{
		Input: &algebra.Product{
			L: &algebra.Scan{Relation: "R", As: "a"},
			R: &algebra.Scan{Relation: "R", As: "b"},
		},
		Pred: algebra.Predicate{Atoms: []algebra.Atom{
			{L: col("a", "ValidFrom"), Op: algebra.LT, R: col("b", "ValidTo")},
			{L: col("b", "ValidFrom"), Op: algebra.LT, R: col("a", "ValidTo")},
		}},
	}
	tree := optimize(t, db, q, optimizer.Options{})
	_, stats, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSortedRows() != 0 {
		t.Errorf("sorted %d rows despite pre-sorted input", stats.TotalSortedRows())
	}
	_ = interval.Time(0)
}

// A recognized join or semijoin pairs the same rows on every path: the
// nodes joinOf and semijoinOf build carry no atom, so the kind alone says
// which pairs match, and the conventional paths test it on the node's
// spans as the stream operators do.
func TestConventionalPathsTestTheKind(t *testing.T) {
	db := newPoissonDB(t, 200)
	paths := []struct {
		name string
		opt  Options
	}{
		{"ForceNestedLoop", Options{ForceNestedLoop: true}},
		{"ForceNoHash", Options{ForceNoHash: true}},
		{"ForceNestedLoop+ForceNoHash", Options{ForceNestedLoop: true, ForceNoHash: true}},
	}
	for _, kind := range []algebra.TemporalKind{algebra.KindContained, algebra.KindContain, algebra.KindOverlap, algebra.KindBefore} {
		for _, node := range []struct {
			name string
			tree algebra.Expr
		}{{"join", joinOf(kind)}, {"semijoin", semijoinOf(kind)}} {
			want, _, err := Run(db, node.tree, colOpt())
			if err != nil {
				t.Fatal(err)
			}
			if n := want.Cardinality(); n == 0 || n == 200 || n == 200*200 {
				t.Fatalf("%s %s: %d columnar rows pair nothing or everything", kind, node.name, n)
			}
			for _, p := range paths {
				got, _, err := Run(db, node.tree, p.opt)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s %s under %s", kind, node.name, p.name), want, got)
			}
		}
	}
}
