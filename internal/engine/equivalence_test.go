package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// TestOptimizerEquivalenceRandomized is the whole-pipeline soundness
// property: for random conjunctive temporal queries over the Faculty
// relation, the fully optimized plan (semantic pass with integrity
// constraints, pushdown, temporal recognition, semijoin introduction, self
// detection, stream algorithms with order verification) must produce
// exactly the rows of the unoptimized nested-loop evaluation — and a
// detected contradiction must mean the nested-loop result is empty.
func TestOptimizerEquivalenceRandomized(t *testing.T) {
	db := newFacultyDB(t, 25, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(61))
	tempCols := []string{"ValidFrom", "ValidTo"}
	cmps := []algebra.CmpOp{algebra.LT, algebra.LE, algebra.GT, algebra.GE, algebra.EQ}
	rels := []interval.Relationship{
		interval.RelDuring, interval.RelContains, interval.RelBefore,
		interval.RelMeets, interval.RelOverlaps, interval.RelEqual,
	}

	genQuery := func() algebra.Expr {
		nVars := 2 + rng.Intn(2)
		vars := make([]string, nVars)
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		var pred algebra.Predicate
		// Maybe a key equality between a random pair.
		if rng.Intn(2) == 0 {
			a, b := rng.Intn(nVars), rng.Intn(nVars)
			if a != b {
				pred.Atoms = append(pred.Atoms, algebra.Atom{
					L: algebra.Column(vars[a], "Name"), Op: algebra.EQ, R: algebra.Column(vars[b], "Name"),
				})
			}
		}
		// Maybe rank constants.
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				pred.Atoms = append(pred.Atoms, algebra.Atom{
					L:  algebra.Column(v, "Rank"),
					Op: algebra.EQ,
					R:  algebra.Const(value.String_(workload.Ranks[rng.Intn(3)])),
				})
			}
		}
		// Temporal comparison atoms between random endpoint pairs.
		nAtoms := 1 + rng.Intn(3)
		for i := 0; i < nAtoms; i++ {
			a, b := rng.Intn(nVars), rng.Intn(nVars)
			if a == b {
				continue
			}
			pred.Atoms = append(pred.Atoms, algebra.Atom{
				L:  algebra.Column(vars[a], tempCols[rng.Intn(2)]),
				Op: cmps[rng.Intn(len(cmps))],
				R:  algebra.Column(vars[b], tempCols[rng.Intn(2)]),
			})
		}
		// Maybe a temporal operator atom.
		if rng.Intn(2) == 0 {
			a, b := rng.Intn(nVars), rng.Intn(nVars)
			if a != b {
				ta := algebra.TemporalAtom{L: vars[a], R: vars[b]}
				if rng.Intn(3) == 0 {
					ta.General = true
				} else {
					ta.Rel = rels[rng.Intn(len(rels))]
				}
				pred.Temporal = append(pred.Temporal, ta)
			}
		}

		// Product chain and a projection over a random subset of one or
		// two variables.
		var tree algebra.Expr
		for _, v := range vars {
			scan := &algebra.Scan{Relation: "Faculty", As: v}
			if tree == nil {
				tree = scan
			} else {
				tree = &algebra.Product{L: tree, R: scan}
			}
		}
		if !pred.True() {
			tree = &algebra.Select{Input: tree, Pred: pred}
		}
		nOut := 1 + rng.Intn(2)
		var cols []algebra.Output
		for i := 0; i < nOut; i++ {
			v := vars[rng.Intn(nVars)]
			col := []string{"Name", "Rank", "ValidFrom", "ValidTo"}[rng.Intn(4)]
			cols = append(cols, algebra.Output{
				Name: fmt.Sprintf("c%d", i),
				From: algebra.ColRef{Var: v, Col: col},
			})
		}
		return &algebra.Project{Input: tree, Cols: cols, Distinct: true}
	}

	for trial := 0; trial < 120; trial++ {
		q := genQuery()

		ref, err := optimizer.Optimize(q, db, optimizer.Options{
			NoSemantic: true, NoConventional: true, NoRecognition: true,
		})
		if err != nil {
			t.Fatalf("trial %d: reference optimize: %v\n%s", trial, err, algebra.Format(q))
		}
		refOut, _, err := Run(db, ref.Tree, Options{ForceNestedLoop: true, ForceNoHash: true})
		if err != nil {
			t.Fatalf("trial %d: reference run: %v\n%s", trial, err, algebra.Format(q))
		}

		opt, err := optimizer.Optimize(q, db, optimizer.Options{ICs: db.ChronOrders()})
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\n%s", trial, err, algebra.Format(q))
		}
		if opt.Contradiction {
			if refOut.Cardinality() != 0 {
				t.Fatalf("trial %d: contradiction claimed but %d rows exist\n%s",
					trial, refOut.Cardinality(), algebra.Format(q))
			}
			continue
		}
		optOut, _, err := Run(db, opt.Tree, Options{VerifyOrder: true})
		if err != nil {
			t.Fatalf("trial %d: optimized run: %v\n%s", trial, err, algebra.Format(opt.Tree))
		}
		sameRows(t, fmt.Sprintf("trial %d\nquery:\n%s\noptimized:\n%s",
			trial, algebra.Format(q), algebra.Format(opt.Tree)), refOut, optOut)
	}
}

// The same property for every Options value a non-test caller sets, over
// the Superstar plan (with its chronological-order constraint declared, so
// the plan streams) and a recognized overlap join. Each variant names the
// algorithm or plan note that proves it engaged on at least one of the two
// plans, and may name one that must not appear, so no entry passes
// vacuously.
func TestExecutionVariantEquivalence(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	overlap := &algebra.Project{
		Input: &algebra.Select{
			Input: &algebra.Product{
				L: &algebra.Scan{Relation: "Faculty", As: "f"},
				R: &algebra.Scan{Relation: "Faculty", As: "g"},
			},
			Pred: algebra.Predicate{Temporal: []algebra.TemporalAtom{{L: "f", R: "g", General: true}}},
		},
		Cols: []algebra.Output{
			{Name: "N", From: algebra.ColRef{Var: "f", Col: "Name"}},
			{Name: "M", From: algebra.ColRef{Var: "g", Col: "Name"}},
		},
	}
	var plans []algebra.Expr
	for _, q := range []algebra.Expr{superstarQuery(), overlap} {
		plans = append(plans, optimize(t, db, q, optimizer.Options{ICs: db.ChronOrders()}))
	}
	variants := []struct {
		name         string
		opt          Options
		want, absent string
	}{
		{"default", Options{}, "columnar batch kernels", "parallel"},
		{"nested-loop", Options{ForceNestedLoop: true}, "hash equi-join", "stream"},
		{"nested-loop-no-hash", Options{ForceNestedLoop: true, ForceNoHash: true}, "nested-loop join", "hash"},
		{"verify-order", Options{VerifyOrder: true}, "columnar batch kernels", ""},
		{"row-exec", Options{RowExec: true}, "stream overlap-join", "columnar batch kernels"},
		{"parallel", Options{Parallelism: 4}, "parallel ×", ""},
		{"govern", Options{GovernWorkspace: true}, "governor:", ""},
		{"spill", Options{SortMemRows: 8, SpillDir: t.TempDir()}, "external sort", ""},
	}
	bases := make([]*relation.Relation, len(plans))
	for i, plan := range plans {
		var err error
		if bases[i], _, err = Run(db, plan, Options{ForceNestedLoop: true, ForceNoHash: true}); err != nil {
			t.Fatal(err)
		}
		if len(bases[i].Rows) == 0 {
			t.Fatalf("plan %d: degenerate test, no output rows", i)
		}
	}
	for _, v := range variants {
		engaged := false
		for i, plan := range plans {
			out, stats, err := Run(db, plan, v.opt)
			if err != nil {
				t.Fatalf("%s plan %d: %v", v.name, i, err)
			}
			sameRows(t, fmt.Sprintf("%s plan %d", v.name, i), bases[i], out)
			engaged = engaged || planMentions(stats, v.want)
			if v.absent != "" && planMentions(stats, v.absent) {
				t.Errorf("%s plan %d mentions %q: %+v", v.name, i, v.absent, stats.Nodes)
			}
		}
		if !engaged {
			t.Errorf("%s: no plan mentions %q, so the variant never engaged", v.name, v.want)
		}
	}
}

// planMentions reports whether any node's algorithm or notes contain s.
func planMentions(stats *Stats, s string) bool {
	for _, n := range stats.Nodes {
		if strings.Contains(n.Algorithm, s) {
			return true
		}
	}
	return hasNote(stats, s)
}
