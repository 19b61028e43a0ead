package experiments

import (
	"fmt"
	"runtime"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// ColumnarPoint is one operator measurement of the E25 sweep: the same
// serial plan on the row-at-a-time reference path and on the columnar
// batch kernels, with the output verified identical before either time is
// believed.
type ColumnarPoint struct {
	Op         string  // operator under test
	RowNS      int64   // best-of-5 wall time, Options.RowExec
	ColumnarNS int64   // best-of-5 wall time, default columnar path
	Speedup    float64 // RowNS / ColumnarNS
	Rows       int     // output rows (identical on both paths)
}

// ColumnarResult is the E25 document.
type ColumnarResult struct {
	N          int
	GOMAXPROCS int
	Points     []ColumnarPoint
}

// Columnar is experiment E25: the row-vs-columnar serial sweep. Each
// eligible stream operator runs the same workload (long container
// lifespans over short containee ones) twice — once forced onto the
// row-at-a-time reference implementation, once on the default columnar
// batch kernels — and the table reports the wall-time ratio. The runs must
// produce the byte-identical row sequence or the experiment fails; the
// speedup column is the tentpole claim of the batch core, so the identity
// check comes first.
func Columnar(n int, seed int64) (*ColumnarResult, *Table, error) {
	xs := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: seed}, "x")
	ys := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 4, Seed: seed + 1}, "y")
	db := engine.NewDB()
	if err := db.Register(relation.FromTuples("X", xs)); err != nil {
		return nil, nil, err
	}
	if err := db.Register(relation.FromTuples("Y", ys)); err != nil {
		return nil, nil, err
	}
	span := func(v string) algebra.SpanRef {
		return algebra.SpanRef{
			TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
			TE: algebra.ColRef{Var: v, Col: "ValidTo"},
		}
	}
	join := func(kind algebra.TemporalKind) algebra.Expr {
		return &algebra.Join{
			L:    &algebra.Scan{Relation: "X", As: "a"},
			R:    &algebra.Scan{Relation: "Y", As: "b"},
			Kind: kind, LSpan: span("a"), RSpan: span("b"),
		}
	}
	semijoin := func(kind algebra.TemporalKind) algebra.Expr {
		return &algebra.Semijoin{
			L:    &algebra.Scan{Relation: "X", As: "a"},
			R:    &algebra.Scan{Relation: "Y", As: "b"},
			Kind: kind, LSpan: span("a"), RSpan: span("b"),
		}
	}
	ops := []struct {
		name string
		expr algebra.Expr
	}{
		{"contain-join", join(algebra.KindContain)},
		{"overlap-join", join(algebra.KindOverlap)},
		{"contain-semijoin", semijoin(algebra.KindContain)},
		{"contained-semijoin", semijoin(algebra.KindContained)},
		{"overlap-semijoin", semijoin(algebra.KindOverlap)},
	}

	measure := func(expr algebra.Expr, opt engine.Options) (*relation.Relation, int64, error) {
		var out *relation.Relation
		var best int64
		for rep := 0; rep < 5; rep++ {
			// Collect between repetitions: the joins materialize multi-MB
			// outputs, and inherited heap debt otherwise taxes whichever
			// rep the background collector lands on.
			runtime.GC()
			start := time.Now() // lint:allow determinism — wall-time measurement, reported as such
			o, _, err := engine.Run(db, expr, opt)
			if err != nil {
				return nil, 0, err
			}
			if d := time.Since(start).Nanoseconds(); rep == 0 || d < best {
				best = d
			}
			out = o
		}
		return out, best, nil
	}

	res := &ColumnarResult{N: n, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, op := range ops {
		rowOut, rowNS, err := measure(op.expr, engine.Options{RowExec: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s (row): %w", op.name, err)
		}
		colOut, colNS, err := measure(op.expr, engine.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s (columnar): %w", op.name, err)
		}
		if err := identical(rowOut, colOut); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", op.name, err)
		}
		res.Points = append(res.Points, ColumnarPoint{
			Op: op.name, RowNS: rowNS, ColumnarNS: colNS,
			Speedup: float64(rowNS) / float64(colNS),
			Rows:    colOut.Cardinality(),
		})
	}

	tab := &Table{
		Title: fmt.Sprintf("E25 — row vs columnar serial stream operators (%d×%d tuples, GOMAXPROCS=%d)",
			n, n, res.GOMAXPROCS),
		Header: []string{"operator", "row ms", "columnar ms", "speedup", "rows"},
	}
	for _, p := range res.Points {
		tab.Add(p.Op, float64(p.RowNS)/1e6, float64(p.ColumnarNS)/1e6,
			fmt.Sprintf("%.2f×", p.Speedup), p.Rows)
	}
	tab.Note("every columnar run verified byte-identical to the row reference sequence")
	tab.Note("both paths serial; sorting time is shared and included in both columns")
	return res, tab, nil
}

// identical reports where two results' row sequences first differ, or nil.
func identical(a, b *relation.Relation) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count diverged: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			return fmt.Errorf("row %d diverged from the row reference", i)
		}
	}
	return nil
}
