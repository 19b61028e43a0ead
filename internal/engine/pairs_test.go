package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// chunkyTuples is one side of a join whose output spills over several pair
// chunks: `long` lifespans that all cover a run of `short` ones. off shifts
// the side by one chronon, so the other side's longs contain this side's
// shorts and its shorts lie inside this side's longs.
func chunkyTuples(prefix string, long, short int, off interval.Time) []relation.Tuple {
	out := make([]relation.Tuple, 0, long+short)
	for i := 0; i < long; i++ {
		t := interval.Time(i) + off
		out = append(out, relation.Tuple{S: fmt.Sprintf("%s%d", prefix, i), V: value.String_(prefix), Span: interval.New(t, t+2000)})
	}
	for i := 0; i < short; i++ {
		t := interval.Time(300+3*i) + off
		out = append(out, relation.Tuple{S: fmt.Sprintf("%s-%d", prefix, i), V: value.String_(prefix), Span: interval.New(t, t+2)})
	}
	return out
}

// cols shreds tuples into endpoint columns in TS↑ order.
func cols(ts []relation.Tuple) core.Cols {
	spans := make([]interval.Interval, len(ts))
	for i, t := range ts {
		spans[i] = t.Span
	}
	slices.SortStableFunc(spans, func(a, b interval.Interval) int { return int(a.Start - b.Start) })
	var c core.Cols
	for _, s := range spans {
		c.TS = append(c.TS, s.Start)
		c.TE = append(c.TE, s.End)
	}
	return c
}

// Contain, contained and overlap joins whose matches cross at least three
// chunk boundaries return the row reference's rows, in order.
func TestChunkedJoinPairsMatchRowReference(t *testing.T) {
	xs, ys := chunkyTuples("x", 200, 200, 0), chunkyTuples("y", 200, 200, 1)
	db := NewDB()
	if err := db.Register(relation.FromTuples("X", xs)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(relation.FromTuples("Y", ys)); err != nil {
		t.Fatal(err)
	}
	first := max(len(xs), len(ys))
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap} {
		ref, _, err := Run(db, joinOf(kind), rowOpt())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ref.Rows); n <= first+3*pairChunkLen {
			t.Fatalf("%v: degenerate test, %d pairs fill fewer than four chunks", kind, n)
		}
		got, _, err := Run(db, joinOf(kind), colOpt())
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, fmt.Sprint(kind), ref, got)
	}
}

// pairSize is the bytes one match takes in a chunk.
var pairSize = uint64(reflect.TypeOf(pairIdx{}).Size())

// pairBytes is the pair memory a chunk list holds.
func pairBytes(pc pairChunks) uint64 {
	n := 0
	for _, c := range pc {
		n += cap(c)
	}
	return uint64(n) * pairSize
}

// allocated is the fewest heap bytes f allocated over a few runs; the
// minimum discards whatever another goroutine allocates meanwhile.
func allocated(f func()) uint64 {
	var least uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}

// The pair list costs its final size plus at most one chunk, and a join
// smaller than its first chunk allocates exactly that chunk — what the
// single appended slice allocated before it had to grow.
func TestPairListAllocation(t *testing.T) {
	const slack = 1 << 10 // the chunk-list headers and the list itself
	for _, tc := range []struct {
		name        string
		long, short int
		small       bool
	}{
		{"large", 200, 200, false},
		{"small", 1, 100, true},
	} {
		lc := cols(chunkyTuples("x", tc.long, tc.short, 0))
		rc := cols(chunkyTuples("y", tc.long, tc.short, 1))
		first := max(lc.Len(), rc.Len())
		pairs, err := columnarJoinPairs(algebra.KindContain, lc, rc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := pairs.count()
		if tc.small != (n < first) {
			t.Fatalf("%s: %d pairs against a first chunk of %d", tc.name, n, first)
		}
		for i, c := range pairs {
			want := pairChunkLen
			if i == 0 {
				want = first
			}
			if len(c) == 0 || cap(c) != want {
				t.Fatalf("%s: chunk %d has len %d cap %d, want non-empty with cap %d", tc.name, i, len(c), cap(c), want)
			}
		}
		kernel := allocated(func() {
			_ = core.BatchContainJoinTSTS(lc, rc, core.Options{}, func(int32, int32) {})
		})
		total := allocated(func() {
			_, _ = columnarJoinPairs(algebra.KindContain, lc, rc, core.Options{})
		})
		list := total - min(total, kernel)
		if tc.small {
			if held := pairBytes(pairs); held != uint64(first)*pairSize || list > held+slack {
				t.Errorf("%s: list holds %d B and allocated %d B, want one %d B chunk", tc.name, held, list, uint64(first)*pairSize)
			}
			continue
		}
		if len(pairs) < 4 {
			t.Fatalf("%s: %d chunks, want at least four", tc.name, len(pairs))
		}
		if bound := uint64(n)*pairSize + pairChunkLen*pairSize; pairBytes(pairs) > bound || list > bound+slack {
			t.Errorf("%s: list holds %d B and allocated %d B for %d pairs, want ≤ %d B", tc.name, pairBytes(pairs), list, n, bound)
		}
	}
}
