package engine

import (
	"fmt"
	"reflect"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// planDB holds the relations the plan-immutability check reads: the
// Poisson pair X and Y, Z stored in a heap file, and Faculty with its
// rank order.
func planDB(t *testing.T) *DB {
	t.Helper()
	db := newPoissonDB(t, 60)
	db.MustRegister(relation.FromTuples("Z", workload.Tuples(workload.Config{N: 60, Lambda: 1, MeanDur: 25, Seed: 23}, "z")))
	if err := db.StoreRelation("Z", t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 40, Seed: 77}))
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	return db
}

// immutablePlans covers every node kind: scans (in memory and stored),
// selections, the product, the joins and semijoins of every temporal kind,
// self ones included, the hash equi-join, projections with and without
// DISTINCT, the aggregate and the optimized Superstar plan.
func immutablePlans(t *testing.T, db *DB) map[string]algebra.Expr {
	col := algebra.Column
	scan := func(rel, as string) algebra.Expr { return &algebra.Scan{Relation: rel, As: as} }
	atom := func(l algebra.Operand, op algebra.CmpOp, r algebra.Operand) algebra.Atom {
		return algebra.Atom{L: l, Op: op, R: r}
	}
	plans := map[string]algebra.Expr{
		"scan":        scan("X", "a"),
		"stored scan": scan("Z", "a"),
		"select": &algebra.Select{Input: scan("X", "a"), Pred: algebra.Predicate{Atoms: []algebra.Atom{
			atom(col("a", "ValidFrom"), algebra.GE, algebra.Const(value.TimeVal(3))),
			atom(col("a", "V"), algebra.EQ, algebra.Const(value.String_("v"))),
		}}},
		"product":   &algebra.Product{L: scan("X", "a"), R: scan("Y", "b")},
		"equi-join": &algebra.Join{L: scan("X", "a"), R: scan("Y", "b"), Pred: algebra.Predicate{Atoms: []algebra.Atom{atom(col("a", "V"), algebra.EQ, col("b", "V"))}}},
		"self equi-join": &algebra.Join{L: scan("X", "a"), R: scan("X", "b"), Pred: algebra.Predicate{Atoms: []algebra.Atom{
			atom(col("a", "ValidFrom"), algebra.EQ, col("b", "ValidFrom"))}}},
		"self semijoin":        containedSelf("X", "a", "b"),
		"stored semijoin":      &algebra.Semijoin{L: scan("Z", "a"), R: scan("Y", "b"), Kind: algebra.KindContain, LSpan: spanOf("a"), RSpan: spanOf("b")},
		"project":              &algebra.Project{Input: scan("X", "a"), Cols: []algebra.Output{{Name: "S", From: ref("a", "S")}}},
		"project distinct":     projectOf(overlapJoin(scan("X", "a"), scan("Y", "b"), "a", "b"), ref("a", "S"), ref("b", "V")),
		"project distinct key": projectOf(scan("X", "a"), ref("a", "S"), ref("a", "ValidFrom")),
		"aggregate": &algebra.Aggregate{
			Input:   scan("X", "a"),
			GroupBy: []algebra.ColRef{ref("a", "V")},
			Terms: []algebra.AggTerm{
				{Kind: algebra.AggCount, As: "n"},
				{Kind: algebra.AggMin, Of: ref("a", "ValidFrom"), As: "first"},
			},
		},
		"superstar": optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()}),
	}
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap, algebra.KindBefore} {
		plans[kind.String()+" join"] = joinOf(kind)
		plans[kind.String()+" semijoin"] = semijoinOf(kind)
		plans[kind.String()+" self join"] = &algebra.Join{L: scan("X", "a"), R: scan("X", "b"), Kind: kind, LSpan: spanOf("a"), RSpan: spanOf("b")}
	}
	plans["θ semijoin"] = &algebra.Semijoin{L: scan("X", "a"), R: scan("Y", "b"), Pred: overlapPred("a", "b")}
	return plans
}

// TestRunLeavesPlanUnchanged holds Run to writing no field of any plan
// node, which is what lets a prepared statement run its cached plan
// without copying it: every node kind, under every Options variant
// TestExecutionVariantEquivalence enumerates plus a traced, profiled and
// published run, over a cold and then a warm relation index, leaves the
// tree deep-equal to a clone taken before the run.
func TestRunLeavesPlanUnchanged(t *testing.T) {
	variants := map[string]Options{
		"default":                 {},
		"nested-loop":             {ForceNestedLoop: true},
		"nested-loop-no-hash":     {ForceNestedLoop: true, ForceNoHash: true},
		"verify-order":            {VerifyOrder: true},
		"row-exec":                {RowExec: true},
		"parallelism (no effect)": {Parallelism: 4, ForceParallel: true},
		"govern":                  {GovernWorkspace: true},
		"spill":                   {SortMemRows: 8, SpillDir: t.TempDir()},
		"traced and profiled":     {Tracer: obs.NewTracer(), Profile: true, Registry: obs.NewRegistry()},
	}
	for name, plan := range immutablePlans(t, planDB(t)) {
		// CloneExpr copies nil slices as empty ones: run a clone, so that
		// the snapshot, a clone of it, compares field for field.
		plan = algebra.CloneExpr(plan)
		want := algebra.CloneExpr(plan)
		for vname, opt := range variants {
			db := planDB(t)
			for _, temp := range []string{"cold", "warm"} {
				label := fmt.Sprintf("%s, %s, %s index", name, vname, temp)
				if _, _, err := Run(db, plan, opt); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(plan, want) {
					t.Fatalf("%s: Run changed the plan:\n got %#v\nwant %#v", label, plan, want)
				}
			}
		}
	}
}
