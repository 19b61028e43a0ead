// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark corresponds to one artifact (see DESIGN.md's
// experiment index); the cmd/tdbbench binary prints the matching report
// tables with workspace measurements, while these testing.B benchmarks
// measure throughput of the same code paths.
package tdb_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/baseline"
	"tdb/internal/core"
	"tdb/internal/engine"
	"tdb/internal/experiments"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/rollback"
	"tdb/internal/storage"
	"tdb/internal/stream"
	"tdb/internal/value"
	"tdb/internal/workload"
)

func tupleSpan(t relation.Tuple) interval.Interval { return t.Span }

func benchTuples(n int, seed int64, o relation.Order) []relation.Tuple {
	ts := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 12, LongFrac: 0.1, Seed: seed}, "t")
	relation.SortSpans(ts, tupleSpan, o)
	return ts
}

func containTheta(a, b interval.Interval) bool { return a.Start < b.Start && b.End < a.End }

// --- Table 1: Contain-join under its two streamable sort orders, both
// read policies, against the nested-loop baseline. ---

func BenchmarkTable1_ContainJoin(b *testing.B) {
	const n = 20000
	xsTS := benchTuples(n, 1, relation.Order{relation.TSAsc})
	ysTS := benchTuples(n, 2, relation.Order{relation.TSAsc})
	ysTE := benchTuples(n, 2, relation.Order{relation.TEAsc})

	b.Run("TSTS/sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainJoinTSTS(stream.FromSlice(xsTS), stream.FromSlice(ysTS),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TSTS/lambda", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainJoinTSTS(stream.FromSlice(xsTS), stream.FromSlice(ysTS),
				tupleSpan, core.Options{Policy: core.ReadLambda, LambdaX: 1, LambdaY: 1},
				func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TSTE/sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainJoinTSTE(stream.FromSlice(xsTS), stream.FromSlice(ysTE),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested-loop-baseline", func(b *testing.B) {
		// The quadratic baseline at this size is slow; it is here to make
		// the factor visible in the same run.
		small := 2000
		xs := xsTS[:small]
		ys := ysTS[:small]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.NestedLoopJoin(xs, ys, tupleSpan, containTheta, nil, func(a, c relation.Tuple) {})
		}
	})
}

// --- Resource accounting: the cost of the prof layer on the E22 serial
// contain-join. "bare" is the sweep with instrumentation compiled in but
// every hook nil/off (the production default — compare against the seed
// to hold the ≤1% budget); "probe" adds the hot-loop counters; the
// engine pair shows the whole traced query with Profile off vs on. ---

func BenchmarkProfiling_SerialContainJoin(b *testing.B) {
	const n = 20000
	xs := benchTuples(n, 21, relation.Order{relation.TSAsc})
	ys := benchTuples(n, 22, relation.Order{relation.TSAsc})
	sink := func(a, c relation.Tuple) {}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.ContainJoinTSTS(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{}, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probe", func(b *testing.B) {
		var p metrics.Probe
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p = metrics.Probe{}
			if err := core.ContainJoinTSTS(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{Probe: &p}, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E25: the columnar batch core against the row reference on the same
// serial contain-join (the tentpole claim). "batch-kernel" is the pure
// sweep over prebuilt columns; "batch-conversion" pins the row→column
// shredding overhead alone (endpoint columns, the engine's per-node cost);
// "row-kernel" is the row reference; the engine pair measures the whole
// node including sorting and materialization. ---

func BenchmarkColumnar_SerialContainJoin(b *testing.B) {
	const n = 20000
	xs := benchTuples(n, 21, relation.Order{relation.TSAsc})
	ys := benchTuples(n, 22, relation.Order{relation.TSAsc})
	colsOf := func(ts []relation.Tuple) core.Cols {
		c := core.Cols{
			TS: make([]interval.Time, 0, len(ts)),
			TE: make([]interval.Time, 0, len(ts)),
		}
		for i := range ts {
			c.TS = append(c.TS, ts[i].Span.Start)
			c.TE = append(c.TE, ts[i].Span.End)
		}
		return c
	}
	xc, yc := colsOf(xs), colsOf(ys)

	b.Run("row-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.ContainJoinTSTS(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.BatchContainJoinTSTS(xc, yc, core.Options{}, func(xi, yi int32) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-conversion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cx, cy := colsOf(xs), colsOf(ys)
			if cx.Len()+cy.Len() != 2*n {
				b.Fatal("conversion dropped rows")
			}
		}
	})

	db, q := e25ContainJoin(xs, ys)
	b.Run("engine-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, q, engine.Options{RowExec: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine-columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, q, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// e25ContainJoin registers xs and ys as X and Y and returns the E25
// contain-join query over them.
func e25ContainJoin(xs, ys []relation.Tuple) (*engine.DB, algebra.Expr) {
	db := engine.NewDB()
	db.MustRegister(relation.FromTuples("X", xs))
	db.MustRegister(relation.FromTuples("Y", ys))
	return db, &algebra.Join{
		L: &algebra.Scan{Relation: "X", As: "a"}, R: &algebra.Scan{Relation: "Y", As: "b"},
		Kind: algebra.KindContain,
		LSpan: algebra.SpanRef{
			TS: algebra.ColRef{Var: "a", Col: "ValidFrom"}, TE: algebra.ColRef{Var: "a", Col: "ValidTo"}},
		RSpan: algebra.SpanRef{
			TS: algebra.ColRef{Var: "b", Col: "ValidFrom"}, TE: algebra.ColRef{Var: "b", Col: "ValidTo"}},
	}
}

// --- Output materialization: the E25 serial contain-join, whose ~297k
// 8-cell output rows make the match list and the row arena most of the
// bytes a query allocates. B/op (and B/row beside it) pins the 16-byte
// value.Value and the chunked pair list: a wider cell or a regrown pair
// buffer shows up here first. ---

func BenchmarkMaterializeJoin(b *testing.B) {
	const n = 20000
	db, q := e25ContainJoin(benchTuples(n, 21, relation.Order{relation.TSAsc}),
		benchTuples(n, 22, relation.Order{relation.TSAsc}))
	var before, after runtime.MemStats
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, _, err := engine.Run(db, q, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows += len(res.Rows)
	}
	runtime.ReadMemStats(&after)
	if rows > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(rows), "B/row")
	}
}

func BenchmarkProfiling_TracedQuery(b *testing.B) {
	db := engine.NewDB()
	fac := workload.Faculty(workload.FacultyConfig{N: 300, Continuous: true, Seed: 10})
	db.MustRegister(fac)
	if err := db.DeclareChronOrder(experiments.RankOrder(true)); err != nil {
		b.Fatal(err)
	}
	tree, err := experiments.SuperstarTree(db)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		b.Fatal(err)
	}
	for _, profile := range []bool{false, true} {
		name := "profile-off"
		if profile {
			name = "profile-on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.Run(db, plan.Tree,
					engine.Options{Tracer: obs.NewTracer(), Profile: profile}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 1 case (d): the buffers-only Figure 6 semijoins. ---

func BenchmarkTable1_SemijoinBuffersOnly(b *testing.B) {
	const n = 50000
	xsTS := benchTuples(n, 3, relation.Order{relation.TSAsc})
	ysTE := benchTuples(n, 4, relation.Order{relation.TEAsc})
	xsTE := benchTuples(n, 3, relation.Order{relation.TEAsc})
	ysTS := benchTuples(n, 4, relation.Order{relation.TSAsc})

	b.Run("contain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainSemijoin(stream.FromSlice(xsTS), stream.FromSlice(ysTE),
				tupleSpan, core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainedSemijoin(stream.FromSlice(xsTE), stream.FromSlice(ysTS),
				tupleSpan, core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contain-TSTS-case-c", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainSemijoinTSTS(stream.FromSlice(xsTS), stream.FromSlice(ysTS),
				tupleSpan, core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested-loop-baseline", func(b *testing.B) {
		small := 3000
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.NestedLoopSemijoin(xsTS[:small], ysTS[:small], tupleSpan, containTheta, nil, func(relation.Tuple) {})
		}
	})
}

// --- Table 2: Overlap join and semijoin. ---

func BenchmarkTable2_Overlap(b *testing.B) {
	const n = 20000
	xs := benchTuples(n, 5, relation.Order{relation.TSAsc})
	ys := benchTuples(n, 6, relation.Order{relation.TSAsc})
	b.Run("join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.OverlapJoin(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semijoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.OverlapSemijoin(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 3 / Figure 7: self semijoins, optimal vs. suboptimal order. ---

func BenchmarkTable3_SelfSemijoin(b *testing.B) {
	const n = 50000
	asc := benchTuples(n, 7, relation.Order{relation.TSAsc, relation.TEAsc})
	desc := benchTuples(n, 7, relation.Order{relation.TSDesc, relation.TEDesc})

	b.Run("contained/TSasc-1-state-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainedSelfSemijoin(stream.FromSlice(asc), tupleSpan,
				core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contain/TSdesc-1-state-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainSelfSemijoin(stream.FromSlice(desc), tupleSpan,
				core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contain/TSasc-overlap-state", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.ContainSelfSemijoinTSAsc(stream.FromSlice(asc), tupleSpan,
				core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 3: the conventional optimization gain on the Superstar tree. ---

func BenchmarkFigure3(b *testing.B) {
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 20, Seed: 8}))
	tree, err := experiments.SuperstarTree(db)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := optimizer.Optimize(tree, db, optimizer.Options{NoSemantic: true, NoConventional: true, NoRecognition: true})
	if err != nil {
		b.Fatal(err)
	}
	pushed, err := optimizer.Optimize(tree, db, optimizer.Options{NoSemantic: true, NoRecognition: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive-cartesian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, naive.Tree, engine.Options{ForceNestedLoop: true, ForceNoHash: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pushed-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, pushed.Tree, engine.Options{ForceNestedLoop: true, ForceNoHash: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 4: the grouped-sum stream processor. ---

func BenchmarkFigure4_GroupSum(b *testing.B) {
	emps := workload.Employees(1000, 100, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stream.GroupSum(stream.FromSlice(emps),
			func(e workload.Employee) string { return e.Dept },
			func(e workload.Employee) int64 { return e.Salary })
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
}

// --- Figure 8 / Section 5: the three Superstar plans. ---

func BenchmarkFigure8_Superstar(b *testing.B) {
	db := engine.NewDB()
	fac := workload.Faculty(workload.FacultyConfig{N: 300, Continuous: true, Seed: 10})
	db.MustRegister(fac)
	if err := db.DeclareChronOrder(experiments.RankOrder(true)); err != nil {
		b.Fatal(err)
	}
	tree, err := experiments.SuperstarTree(db)
	if err != nil {
		b.Fatal(err)
	}
	planA, err := optimizer.Optimize(tree, db, optimizer.Options{NoSemantic: true, NoRecognition: true})
	if err != nil {
		b.Fatal(err)
	}
	planB, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("planA-conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, planA.Tree, engine.Options{ForceNestedLoop: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planB-stream-semijoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Run(db, planB.Tree, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimizer-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Section 4.2.4: Before operators. ---

func BenchmarkSection424_Before(b *testing.B) {
	const n = 20000
	xs := benchTuples(n, 11, relation.Order{relation.TEAsc})
	ys := benchTuples(n, 12, relation.Order{relation.TSAsc})
	b.Run("semijoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.BeforeSemijoin(stream.FromSlice(xs), stream.FromSlice(ys),
				tupleSpan, core.Options{}, func(relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("join-sorted-suffix", func(b *testing.B) {
		// The join output is Θ(n²); use a small slice to keep the bench fast.
		xsSmall, ysSmall := xs[:1500], ys[:1500]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := core.BeforeJoinSorted(stream.FromSlice(xsSmall), ysSmall,
				tupleSpan, core.Options{}, func(a, c relation.Tuple) { n++ })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Section 4.1: the crossover between sorting-then-streaming and the
// nested loop as n grows. ---

func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		xsU := benchTuples(n, 13, relation.Order{relation.TEAsc}) // "stored" in the useless order
		ysU := benchTuples(n, 14, relation.Order{relation.TEAsc})
		b.Run(fmt.Sprintf("stream-sort-first/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xs := append([]relation.Tuple{}, xsU...)
				ys := append([]relation.Tuple{}, ysU...)
				relation.SortSpans(xs, tupleSpan, relation.Order{relation.TSAsc})
				relation.SortSpans(ys, tupleSpan, relation.Order{relation.TSAsc})
				err := core.ContainJoinTSTS(stream.FromSlice(xs), stream.FromSlice(ys),
					tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nested-loop/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.NestedLoopJoin(xsU, ysU, tupleSpan, containTheta, nil, func(a, c relation.Tuple) {})
			}
		})
	}
}

// --- Event joins (the non-inequality operators, via merge). ---

func BenchmarkEventJoins(b *testing.B) {
	const n = 20000
	ts := workload.Tuples(workload.Config{N: n, Lambda: 5, MeanDur: 4, Seed: 15}, "t")
	xsTE := append([]relation.Tuple{}, ts...)
	relation.SortSpans(xsTE, tupleSpan, relation.Order{relation.TEAsc})
	ysTS := append([]relation.Tuple{}, ts...)
	relation.SortSpans(ysTS, tupleSpan, relation.Order{relation.TSAsc})
	xsTS := ysTS

	b.Run("meets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.MeetsJoin(stream.FromSlice(xsTE), stream.FromSlice(ysTS),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("equal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := core.EqualJoin(stream.FromSlice(xsTS), stream.FromSlice(ysTS),
				tupleSpan, core.Options{}, func(a, c relation.Tuple) {})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- The sort that buys the interesting orders (Section 4.1, tradeoff 3):
// the semijoin_narrow shape, 40 000 shuffled rows per input. ---

func BenchmarkSortSpans(b *testing.B) {
	const n = 40000
	rel := relation.FromTuples("R", workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 12, Seed: 18}, "t"))
	rng := rand.New(rand.NewSource(18))
	rng.Shuffle(n, func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
	open := append([]relation.Row(nil), rel.Rows...)
	for i := 0; i < n; i += 10 {
		open[i] = open[i].Clone()
		open[i][rel.Schema.TE] = value.TimeVal(interval.Forever)
	}
	rowSpan := func(r relation.Row) interval.Interval { return r.Span(rel.Schema) }
	buf := make([]relation.Row, n)
	for _, c := range []struct {
		name string
		rows []relation.Row
		o    relation.Order
	}{
		{"TSAsc", rel.Rows, relation.Order{relation.TSAsc}},
		{"TEAsc/tenthForever", open, relation.Order{relation.TEAsc}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, c.rows)
				relation.SortSpans(buf, rowSpan, c.o)
			}
		})
	}
}

// --- The storage substrate: external sort passes. ---

func BenchmarkExternalSort(b *testing.B) {
	rel := relation.FromTuples("R", workload.Tuples(workload.Config{N: 20000, Lambda: 1, MeanDur: 10, Seed: 16}, "t"))
	less := func(a, c relation.Row) bool {
		return a.Span(rel.Schema).Start < c.Span(rel.Schema).Start
	}
	ts, te := relation.ShredSpans(rel.Rows, func(r relation.Row) interval.Interval { return r.Span(rel.Schema) })
	run := func(name string, do func(mem int, dir string) error) {
		for _, mem := range []int{256, 100000} {
			b.Run(fmt.Sprintf("%smemRows=%d", name, mem), func(b *testing.B) {
				dir := b.TempDir()
				for i := 0; i < b.N; i++ {
					if err := do(mem, dir); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The comparison form: whole rows through the run files.
	run("", func(mem int, dir string) error {
		out, err := storage.ExternalSort(stream.FromSlice(rel.Rows), rel.Schema, less, mem, dir, nil)
		if err != nil {
			return err
		}
		_, err = stream.Collect(out)
		return err
	})
	// The key form the engine spills through: (SortKey, index) records.
	run("keys/", func(mem int, dir string) error {
		_, err := storage.ExternalSortKeys(ts, te, relation.Order{relation.TSAsc}, mem, dir, nil, nil)
		return err
	})
}

// --- Section 4.2.3 closing remark: the semijoin prefilter ablation. ---

func BenchmarkPrefilter(b *testing.B) {
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.Prefilter(10000, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Coalescing (the Time Sequence canonical form). ---

func BenchmarkCoalesce(b *testing.B) {
	ts := workload.Tuples(workload.Config{N: 50000, Lambda: 2, MeanDur: 6, Seed: 19}, "t")
	// Group by the value attribute, sorted by ValidFrom within groups.
	relation.SortSpans(ts, tupleSpan, relation.Order{relation.TSAsc})
	key := func(t relation.Tuple) string { return t.V.String() }
	grouped := make([]relation.Tuple, 0, len(ts))
	byKey := map[string][]relation.Tuple{}
	var order []string
	for _, t := range ts {
		k := key(t)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], t)
	}
	for _, k := range order {
		grouped = append(grouped, byKey[k]...)
	}
	rewrap := func(t relation.Tuple, iv interval.Interval) relation.Tuple {
		t.Span = iv
		return t
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := core.Coalesce(stream.FromSlice(grouped), key, tupleSpan, rewrap,
			core.Options{}, func(relation.Tuple) {})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Transaction time: AsOf reconstruction (Section 6 future work). ---

func BenchmarkRollbackAsOf(b *testing.B) {
	store := rollback.NewStore("Faculty", workload.FacultySchema)
	fac := workload.Faculty(workload.FacultyConfig{N: 2000, Seed: 20})
	tx := interval.Time(1)
	for _, row := range fac.Rows {
		if err := store.Insert(tx, row); err != nil {
			b.Fatal(err)
		}
		tx++
	}
	// Delete a third of them.
	for i := 0; i < 2000; i += 3 {
		name := fmt.Sprintf("prof%04d", i)
		if _, err := store.Delete(tx, func(r relation.Row) bool {
			return r[0].AsString() == name
		}); err != nil {
			b.Fatal(err)
		}
		tx++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rel := store.AsOf(tx / 2); rel.Cardinality() == 0 {
			b.Fatal("empty reconstruction")
		}
	}
}

// --- The read-policy ablation (DESIGN.md decision 2): workspace of the
// λ-guided policy vs. the sweep on the same data. Reported via metrics as
// custom benchmark units. ---

func BenchmarkReadPolicyWorkspace(b *testing.B) {
	const n = 20000
	xs := benchTuples(n, 17, relation.Order{relation.TSAsc})
	ys := benchTuples(n, 18, relation.Order{relation.TSAsc})
	for _, policy := range []core.ReadPolicy{core.ReadSweep, core.ReadLambda} {
		b.Run(policy.String(), func(b *testing.B) {
			var ws int64
			for i := 0; i < b.N; i++ {
				probe := &metrics.Probe{}
				err := core.ContainJoinTSTS(stream.FromSlice(xs), stream.FromSlice(ys),
					tupleSpan, core.Options{Probe: probe, Policy: policy, LambdaX: 1, LambdaY: 1},
					func(a, c relation.Tuple) {})
				if err != nil {
					b.Fatal(err)
				}
				ws = probe.Workspace()
			}
			b.ReportMetric(float64(ws), "workspace-tuples")
		})
	}
}
