package engine

import (
	"errors"
	"fmt"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/fault"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// rowOpt runs the row-at-a-time reference path serially.
func rowOpt() Options {
	return Options{RowExec: true, Parallelism: 1, VerifyOrder: true}
}

// colOpt runs the default columnar path serially.
func colOpt() Options {
	return Options{Parallelism: 1, VerifyOrder: true}
}

// columnarWorkloadDB builds one randomized two-relation database. The
// configurations vary density, duration mix and size so the sweeps hit
// empty states, deep states and boundary ties across the matrix.
func columnarWorkloadDB(t *testing.T, n int, seed int64, lambda, meanDur float64, longFrac float64) *DB {
	t.Helper()
	db := NewDB()
	xs := workload.Tuples(workload.Config{N: n, Lambda: lambda, MeanDur: meanDur, LongFrac: longFrac, Seed: seed}, "x")
	ys := workload.Tuples(workload.Config{N: 1 + n/2, Lambda: lambda * 2, MeanDur: meanDur / 4, Seed: seed + 1}, "y")
	if err := db.Register(relation.FromTuples("X", xs)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(relation.FromTuples("Y", ys)); err != nil {
		t.Fatal(err)
	}
	return db
}

// The columnar path must reproduce the row reference byte for byte — same
// rows, same order — and do the same logical work (reads, comparisons,
// emissions) for every operator kind across randomized workloads. Only
// state-grow accounting may differ (the arena pre-sizes its active lists).
func TestColumnarMatchesRowReferenceExactly(t *testing.T) {
	configs := []struct {
		n       int
		seed    int64
		lambda  float64
		meanDur float64
		long    float64
	}{
		{0, 1, 1, 10, 0},
		{1, 2, 1, 10, 0},
		{40, 3, 0.5, 30, 0.2},
		{300, 4, 2, 5, 0},
		{300, 5, 1, 40, 0.3},
	}
	joins := []algebra.TemporalKind{
		algebra.KindContain, algebra.KindContained, algebra.KindOverlap, algebra.KindBefore,
	}
	semis := []algebra.TemporalKind{
		algebra.KindContained, algebra.KindContain, algebra.KindOverlap, algebra.KindBefore,
	}
	for _, cfg := range configs {
		db := columnarWorkloadDB(t, cfg.n, cfg.seed, cfg.lambda, cfg.meanDur, cfg.long)
		for _, kind := range joins {
			name := fmt.Sprintf("join %v n=%d seed=%d", kind, cfg.n, cfg.seed)
			ref, refStats, err := Run(db, joinOf(kind), rowOpt())
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := Run(db, joinOf(kind), colOpt())
			if err != nil {
				t.Fatal(err)
			}
			identicalRows(t, name, ref, got)
			sameLogicalWork(t, name, refStats, gotStats)
		}
		for _, kind := range semis {
			name := fmt.Sprintf("semijoin %v n=%d seed=%d", kind, cfg.n, cfg.seed)
			ref, refStats, err := Run(db, semijoinOf(kind), rowOpt())
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := Run(db, semijoinOf(kind), colOpt())
			if err != nil {
				t.Fatal(err)
			}
			identicalRows(t, name, ref, got)
			sameLogicalWork(t, name, refStats, gotStats)
		}
	}
}

// sameLogicalWork checks the plan-level probe totals the batch kernels
// promise to preserve: tuple reads, comparisons — growth counts are
// layout-dependent and excluded.
func sameLogicalWork(t *testing.T, name string, ref, got *Stats) {
	t.Helper()
	if a, b := ref.TotalTuplesRead(), got.TotalTuplesRead(); a != b {
		t.Errorf("%s: row path read %d tuples, columnar %d", name, a, b)
	}
	if a, b := ref.TotalComparisons(), got.TotalComparisons(); a != b {
		t.Errorf("%s: row path made %d comparisons, columnar %d", name, a, b)
	}
}

// The parallel columnar path (index shards, gathered columns, deferred
// materialization) must also land on the row reference's exact sequence.
func TestColumnarParallelMatchesRowReference(t *testing.T) {
	db := newPoissonDB(t, 600)
	kinds := []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap}
	for _, kind := range kinds {
		for _, q := range []algebra.Expr{joinOf(kind), semijoinOf(kind)} {
			ref, _, err := Run(db, q, rowOpt())
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%v: degenerate test, no output rows", kind)
			}
			for _, k := range []int{2, 3, 8} {
				colPar := forcePar(k)
				got, stats, err := Run(db, q, colPar)
				if err != nil {
					t.Fatalf("%v ×%d: %v", kind, k, err)
				}
				identicalRows(t, fmt.Sprintf("%v columnar ×%d vs row serial", kind, k), ref, got)
				if !hasNote(stats, "columnar batch kernels") {
					t.Errorf("%v ×%d: columnar fan-out not recorded in notes", kind, k)
				}
			}
		}
	}
}

// RowExec is the serial row reference at any Parallelism: under a forced
// fan-out it must run neither shards nor batch kernels, and still return
// exactly the rows of the serial reference and of the columnar fan-out.
func TestRowExecStaysSerialUnderForcedFanOut(t *testing.T) {
	db := newPoissonDB(t, 600)
	kinds := []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap}
	for _, kind := range kinds {
		for _, q := range []algebra.Expr{joinOf(kind), semijoinOf(kind)} {
			ref, _, err := Run(db, q, rowOpt())
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%v: degenerate test, no output rows", kind)
			}
			for _, k := range []int{2, 3, 8} {
				col, _, err := Run(db, q, forcePar(k))
				if err != nil {
					t.Fatalf("%v ×%d: %v", kind, k, err)
				}
				rowPar := forcePar(k)
				rowPar.RowExec = true
				got, stats, err := Run(db, q, rowPar)
				if err != nil {
					t.Fatalf("%v RowExec ×%d: %v", kind, k, err)
				}
				identicalRows(t, fmt.Sprintf("%v RowExec ×%d vs row serial", kind, k), ref, got)
				identicalRows(t, fmt.Sprintf("%v RowExec ×%d vs columnar ×%d", kind, k, k), col, got)
				if hasNote(stats, "parallel ×") {
					t.Errorf("%v ×%d: RowExec run fanned out: %+v", kind, k, stats.Nodes)
				}
				if hasNote(stats, "columnar batch kernels") {
					t.Errorf("%v ×%d: RowExec run claims columnar kernels", kind, k)
				}
			}
		}
	}
}

// Under statistics drift the governed columnar join must breach the same
// admission ceiling as the row path, degrade to the same baseline band
// scan, and return the identical sequence.
func TestColumnarGovernorFallbackMatchesRow(t *testing.T) {
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindOverlap} {
		db := governorDB(t, 40)
		reg := obs.NewRegistry()
		col, colStats, err := Run(db, governorJoin(kind), Options{GovernWorkspace: true, Registry: reg})
		if err != nil {
			t.Fatalf("%v governed columnar: %v", kind, err)
		}
		if note := findNote(colStats, "degraded to baseline sort-merge"); note == "" {
			t.Fatalf("%v: governed columnar run did not degrade; notes: %+v", kind, colStats.Nodes)
		}
		if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != 1 {
			t.Fatalf("%v: fallback counter %d, want 1", kind, got)
		}
		row, rowStats, err := Run(db, governorJoin(kind), Options{GovernWorkspace: true, RowExec: true})
		if err != nil {
			t.Fatalf("%v governed row: %v", kind, err)
		}
		if note := findNote(rowStats, "degraded to baseline sort-merge"); note == "" {
			t.Fatalf("%v: governed row run did not degrade", kind)
		}
		identicalRows(t, fmt.Sprintf("%v governed fallback", kind), row, col)
	}
}

// A fault injected at the shard-worker boundary must surface through the
// columnar parallel drivers as fault.ErrInjected (error mode) and
// ErrWorkerPanic (panic mode), and the engine must recover completely once
// the failpoint disarms.
func TestColumnarParallelChaosFailpoints(t *testing.T) {
	defer fault.Reset()
	db := newPoissonDB(t, 600)
	q := joinOf(algebra.KindContain)
	ref, _, err := Run(db, q, rowOpt())
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Arm("engine/parallel-worker=error:n=1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(db, q, forcePar(4)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("columnar parallel run error %v, want fault.ErrInjected", err)
	}
	fault.Reset()

	if err := fault.Arm("engine/parallel-worker=panic:n=1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(db, q, forcePar(4)); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("columnar parallel run error %v, want ErrWorkerPanic", err)
	}
	fault.Reset()

	got, _, err := Run(db, q, forcePar(4))
	if err != nil {
		t.Fatalf("run after failpoint disarm: %v", err)
	}
	identicalRows(t, "columnar ×4 after chaos recovery", ref, got)
}
