package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
)

// colsOf lays items out as endpoint columns, in slice order.
func colsOf(items []item) Cols {
	c := Cols{
		TS: make([]interval.Time, len(items)),
		TE: make([]interval.Time, len(items)),
	}
	for i, it := range items {
		c.TS[i], c.TE[i] = it.iv.Start, it.iv.End
	}
	return c
}

// The batch kernels promise more than multiset equality: the engine's
// byte-identical contract needs the row engine's exact emission sequence.
// Every check below therefore compares ordered sequences, not sets.

type joinCase struct {
	name           string
	orderX, orderY relation.Order
	row            func(xs, ys []item, opt Options, emit func(x, y item)) error
	batch          func(x, y Cols, opt Options, emit func(xi, yi int32)) error
}

func joinCases() []joinCase {
	return []joinCase{
		{
			name:   "contain-TSTS",
			orderX: relation.Order{relation.TSAsc}, orderY: relation.Order{relation.TSAsc},
			row: func(xs, ys []item, opt Options, emit func(x, y item)) error {
				return ContainJoinTSTS(streamOf(xs), streamOf(ys), itemSpan, opt, emit)
			},
			batch: BatchContainJoinTSTS,
		},
		{
			name:   "overlap",
			orderX: relation.Order{relation.TSAsc}, orderY: relation.Order{relation.TSAsc},
			row: func(xs, ys []item, opt Options, emit func(x, y item)) error {
				return OverlapJoin(streamOf(xs), streamOf(ys), itemSpan, opt, emit)
			},
			batch: BatchOverlapJoin,
		},
	}
}

type semijoinCase struct {
	name           string
	orderX, orderY relation.Order
	row            func(xs, ys []item, opt Options, emit func(item)) error
	batch          func(x, y Cols, opt Options, emit func(int32)) error
}

func semijoinCases() []semijoinCase {
	return []semijoinCase{
		{
			name:   "contain-pairscan",
			orderX: relation.Order{relation.TSAsc}, orderY: relation.Order{relation.TEAsc},
			row: func(xs, ys []item, opt Options, emit func(item)) error {
				return ContainSemijoin(streamOf(xs), streamOf(ys), itemSpan, opt, emit)
			},
			batch: BatchContainSemijoin,
		},
		{
			name:   "contained-pairscan",
			orderX: relation.Order{relation.TEAsc}, orderY: relation.Order{relation.TSAsc},
			row: func(xs, ys []item, opt Options, emit func(item)) error {
				return ContainedSemijoin(streamOf(xs), streamOf(ys), itemSpan, opt, emit)
			},
			batch: BatchContainedSemijoin,
		},
		{
			name:   "overlap",
			orderX: relation.Order{relation.TSAsc}, orderY: relation.Order{relation.TSAsc},
			row: func(xs, ys []item, opt Options, emit func(item)) error {
				return OverlapSemijoin(streamOf(xs), streamOf(ys), itemSpan, opt, emit)
			},
			batch: BatchOverlapSemijoin,
		},
	}
}

// randomWorkloads yields x/y instance pairs across sizes including empty
// and tiny inputs.
func randomWorkloads(t *testing.T, f func(name string, xs, ys []item)) {
	t.Helper()
	for _, n := range []int{0, 1, 2, 5, 30, 200} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*977 + int64(n)))
			ny := 0
			if n > 0 {
				ny = 1 + rng.Intn(2*n)
			}
			xs := genItems(rng, n, 0)
			ys := genItems(rng, ny, 1000)
			f(fmt.Sprintf("n=%d/seed=%d", n, seed), xs, ys)
		}
	}
}

func TestBatchJoinsMatchRowEngineExactly(t *testing.T) {
	for _, jc := range joinCases() {
		jc := jc
		t.Run(jc.name, func(t *testing.T) {
			randomWorkloads(t, func(name string, xs, ys []item) {
				xs, ys = sorted(xs, jc.orderX), sorted(ys, jc.orderY)
				rowProbe, batchProbe := newProbe(), newProbe()
				var want []string
				if err := jc.row(xs, ys, Options{Probe: rowProbe, VerifyOrder: true}, func(x, y item) {
					want = append(want, pairKey(x, y))
				}); err != nil {
					t.Fatalf("%s: row: %v", name, err)
				}
				var got []string
				if err := jc.batch(colsOf(xs), colsOf(ys), Options{Probe: batchProbe, VerifyOrder: true}, func(xi, yi int32) {
					got = append(got, pairKey(xs[xi], ys[yi]))
				}); err != nil {
					t.Fatalf("%s: batch: %v", name, err)
				}
				sameSequence(t, jc.name+"/"+name, got, want)
				sameProbeTotals(t, jc.name+"/"+name, batchProbe, rowProbe)
			})
		})
	}
}

func TestBatchSemijoinsMatchRowEngineExactly(t *testing.T) {
	for _, sc := range semijoinCases() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			randomWorkloads(t, func(name string, xs, ys []item) {
				xs, ys = sorted(xs, sc.orderX), sorted(ys, sc.orderY)
				rowProbe, batchProbe := newProbe(), newProbe()
				var want []int
				if err := sc.row(xs, ys, Options{Probe: rowProbe, VerifyOrder: true}, func(x item) {
					want = append(want, x.id)
				}); err != nil {
					t.Fatalf("%s: row: %v", name, err)
				}
				var got []int
				if err := sc.batch(colsOf(xs), colsOf(ys), Options{Probe: batchProbe, VerifyOrder: true}, func(xi int32) {
					got = append(got, xs[xi].id)
				}); err != nil {
					t.Fatalf("%s: batch: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d emitted, row engine emitted %d", sc.name, name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: emission %d = #%d, row engine emitted #%d", sc.name, name, i, got[i], want[i])
					}
				}
				sameProbeTotals(t, sc.name+"/"+name, batchProbe, rowProbe)
			})
		})
	}
}

func sameSequence(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, row engine emitted %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emission %d = %s, row engine emitted %s", name, i, got[i], want[i])
		}
	}
}

// sameProbeTotals checks the externally meaningful counters agree with the
// row engine: reads, emissions, and comparison work. (Growth counts differ
// by construction — the batch state is arena-backed and pooled.)
func sameProbeTotals(t *testing.T, name string, got, want *metrics.Probe) {
	t.Helper()
	if got.ReadLeft != want.ReadLeft || got.ReadRight != want.ReadRight {
		t.Fatalf("%s: reads L=%d R=%d, row engine L=%d R=%d", name, got.ReadLeft, got.ReadRight, want.ReadLeft, want.ReadRight)
	}
	if got.Emitted != want.Emitted {
		t.Fatalf("%s: emitted %d, row engine %d", name, got.Emitted, want.Emitted)
	}
	if got.Comparisons != want.Comparisons {
		t.Fatalf("%s: comparisons %d, row engine %d", name, got.Comparisons, want.Comparisons)
	}
}

func TestBatchContainJoinGovernedBreachMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := sorted(genItems(rng, 400, 0), relation.Order{relation.TSAsc})
	ys := sorted(genItems(rng, 400, 1000), relation.Order{relation.TSAsc})
	const limit = 4
	rowProbe, batchProbe := newProbe(), newProbe()
	rowErr := ContainJoinTSTS(streamOf(xs), streamOf(ys), itemSpan,
		Options{Probe: rowProbe, Limit: limit}, func(x, y item) {})
	batchErr := BatchContainJoinTSTS(colsOf(xs), colsOf(ys),
		Options{Probe: batchProbe, Limit: limit}, func(xi, yi int32) {})
	if !errors.Is(rowErr, ErrWorkspaceBreach) {
		t.Fatalf("row engine did not breach: %v", rowErr)
	}
	if !errors.Is(batchErr, ErrWorkspaceBreach) {
		t.Fatalf("batch engine did not breach: %v", batchErr)
	}
	// Both abort on the same state transition: identical reads so far.
	if rowProbe.ReadLeft != batchProbe.ReadLeft || rowProbe.ReadRight != batchProbe.ReadRight {
		t.Fatalf("breach points differ: batch L=%d R=%d, row L=%d R=%d",
			batchProbe.ReadLeft, batchProbe.ReadRight, rowProbe.ReadLeft, rowProbe.ReadRight)
	}
}

func TestBatchVerifyOrderRejectsUnsortedInput(t *testing.T) {
	bad := Cols{TS: []interval.Time{5, 1}, TE: []interval.Time{9, 8}}
	good := Cols{TS: []interval.Time{1}, TE: []interval.Time{2}}
	if err := BatchContainJoinTSTS(bad, good, Options{VerifyOrder: true}, func(xi, yi int32) {}); err == nil {
		t.Fatal("unsorted X accepted")
	}
	if err := BatchOverlapSemijoin(good, bad, Options{VerifyOrder: true}, func(xi int32) {}); err == nil {
		t.Fatal("unsorted Y accepted")
	}
}
