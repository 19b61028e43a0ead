package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/testutil"
	"tdb/internal/workload"
)

// identicalRows is the parallel-execution acceptance check: not just the
// same row set, but the exact same row *sequence* the serial plan emits.
func identicalRows(t *testing.T, name string, serial, parallel *relation.Relation) {
	t.Helper()
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("%s: %d serial vs %d parallel rows", name, len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].Key() != parallel.Rows[i].Key() {
			t.Fatalf("%s: row %d differs:\nserial:   %q\nparallel: %q",
				name, i, serial.Rows[i].Key(), parallel.Rows[i].Key())
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

// forcePar asks for a k-way fan-out with order verification; only the
// correctness gates decide, so small test inputs fan out too.
func forcePar(k int) Options {
	return Options{Parallelism: k, VerifyOrder: true}
}

// Every eligible join kind must produce the serial row sequence exactly,
// at any worker count.
func TestParallelJoinsByteIdentical(t *testing.T) {
	db := newPoissonDB(t, 600)
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap} {
		q := joinOf(kind)
		serial, _, err := Run(db, q, Options{Parallelism: 1, VerifyOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Rows) == 0 {
			t.Fatalf("%v: degenerate test, no output rows", kind)
		}
		for _, k := range []int{2, 3, 4, 8} {
			par, stats, err := Run(db, q, forcePar(k))
			if err != nil {
				t.Fatalf("%v ×%d: %v", kind, k, err)
			}
			identicalRows(t, fmt.Sprintf("%v join ×%d", kind, k), serial, par)
			if !hasNote(stats, "parallel ×") {
				t.Errorf("%v ×%d: no parallel note in plan: %+v", kind, k, stats.Nodes)
			}
		}
	}
}

// Every eligible semijoin kind must produce the serial row sequence
// exactly, at any worker count.
func TestParallelSemijoinsByteIdentical(t *testing.T) {
	db := newPoissonDB(t, 600)
	for _, kind := range []algebra.TemporalKind{algebra.KindContained, algebra.KindContain, algebra.KindOverlap} {
		q := semijoinOf(kind)
		serial, _, err := Run(db, q, Options{Parallelism: 1, VerifyOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Rows) == 0 {
			t.Fatalf("%v: degenerate test, no output rows", kind)
		}
		for _, k := range []int{2, 4} {
			par, _, err := Run(db, q, forcePar(k))
			if err != nil {
				t.Fatalf("%v ⋉ ×%d: %v", kind, k, err)
			}
			identicalRows(t, fmt.Sprintf("%v semijoin ×%d", kind, k), serial, par)
		}
	}
}

// The full Superstar pipeline — semantic optimization, semijoin
// introduction, stream execution — must be unchanged by parallel workers.
func TestParallelSuperstarByteIdentical(t *testing.T) {
	db := newFacultyDB(t, 60, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	tree := optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})
	serial, _, err := Run(db, tree, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		par, _, err := Run(db, tree, forcePar(k))
		if err != nil {
			t.Fatalf("×%d: %v", k, err)
		}
		identicalRows(t, fmt.Sprintf("superstar ×%d", k), serial, par)
	}
}

// The zero Options run serially: no node fans out or is planned for a
// fan-out, and a query allocates within 5 % of what it allocates under
// Parallelism 1. The queries are a warm 40 000-a-side contain-semijoin
// and the optimized Superstar plan over 20 000 Faculty rows.
func TestDefaultOptionsRunSerially(t *testing.T) {
	semiDB, _ := orderIndexBench(t)
	faculty, _, superstar := superstarBench(t)
	for _, q := range []struct {
		name string
		db   *DB
		tree algebra.Expr
	}{
		{"contain-semijoin", semiDB, semijoinOf(algebra.KindContain)},
		{"superstar", faculty, superstar},
	} {
		bytes := func(opt Options) uint64 {
			_, stats, err := Run(q.db, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range stats.Nodes {
				if strings.Contains(n.Algorithm, "×") || slices.ContainsFunc(n.Notes, func(s string) bool { return strings.Contains(s, "parallel") }) {
					t.Errorf("%s at Parallelism %d: node fanned out or planned a fan-out: %+v", q.name, opt.Parallelism, n)
				}
			}
			return allocated(func() {
				if _, _, err := Run(q.db, q.tree, opt); err != nil {
					t.Fatal(err)
				}
			})
		}
		serial, def := bytes(Options{Parallelism: 1}), bytes(Options{})
		if def > serial+serial/20 {
			t.Errorf("%s: %d B per run under the zero Options, %d B under Parallelism 1 (limit +5 %%)", q.name, def, serial)
		}
	}
}

// Worker observability: one child span per shard worker, and the
// tdb_parallel_workers gauge returns to zero after the run.
func TestParallelWorkerObservability(t *testing.T) {
	db := newPoissonDB(t, 600)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	o := forcePar(3)
	o.Tracer = tr
	o.Registry = reg
	if _, _, err := Run(db, joinOf(algebra.KindContain), o); err != nil {
		t.Fatal(err)
	}
	workers := 0
	for _, sp := range tr.Spans() {
		if strings.Contains(sp.Label, "join shard") {
			workers++
			if sp.Node.Algorithm != "shard worker" {
				t.Errorf("worker span algorithm = %q", sp.Node.Algorithm)
			}
			if sp.Probe.Comparisons == 0 {
				t.Errorf("worker span %q carries no probe", sp.Label)
			}
		}
	}
	if workers != 3 {
		t.Errorf("want 3 worker spans, got %d", workers)
	}
	if v := reg.Gauge("tdb_parallel_workers", "").Value(); v != 0 {
		t.Errorf("tdb_parallel_workers = %d after run, want 0", v)
	}
	if reg.Counter("tdb_parallel_nodes_total", "").Value() == 0 {
		t.Error("tdb_parallel_nodes_total not incremented")
	}
}

// A parallel stored scan must return the exact file order of a serial scan
// and keep the page accounting deterministic.
func TestParallelStoredScanByteIdentical(t *testing.T) {
	mk := func(t *testing.T) *DB {
		db := NewDB()
		rel := workload.Faculty(workload.FacultyConfig{N: 400, Seed: 77})
		if err := db.Register(rel); err != nil {
			t.Fatal(err)
		}
		if err := db.StoreRelation("Faculty", t.TempDir(), 4); err != nil {
			t.Fatal(err)
		}
		return db
	}
	scan := &algebra.Scan{Relation: "Faculty", As: "f"}
	serialDB, parDB := mk(t), mk(t)
	serial, _, err := Run(serialDB, scan, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := Run(parDB, scan, forcePar(4))
	if err != nil {
		t.Fatal(err)
	}
	identicalRows(t, "stored scan ×4", serial, par)
	if !hasNote(stats, "parallel stored scan") {
		t.Errorf("parallel scan not recorded: %+v", stats.Nodes)
	}
	if got, want := parDB.StoredIO("Faculty").PagesRead, serialDB.StoredIO("Faculty").PagesRead; got != want {
		t.Errorf("parallel scan read %d pages, serial %d", got, want)
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
