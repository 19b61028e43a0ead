package partition

import (
	"slices"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/workload"
)

// startsOf is the ValidFrom column of spans in ascending order, the shape
// Cuts reads.
func startsOf(spans []interval.Interval) []interval.Time {
	ts := make([]interval.Time, len(spans))
	for i, s := range spans {
		ts[i] = s.Start
	}
	slices.Sort(ts)
	return ts
}

func TestCutsBalance(t *testing.T) {
	tuples := workload.Tuples(workload.Config{N: 5000, Lambda: 1, MeanDur: 10, Seed: 5}, "x")
	spans := make([]interval.Interval, len(tuples))
	for i, tu := range tuples {
		spans[i] = tu.Span
	}
	ts := startsOf(spans)
	for _, k := range []int{2, 4, 8} {
		cuts := Cuts(ts, k)
		if len(cuts) != k-1 {
			t.Fatalf("k=%d: want %d cuts, got %v", k, k-1, cuts)
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				t.Fatalf("k=%d: cuts not strictly ascending: %v", k, cuts)
			}
		}
		// Equi-depth: counting by ValidFrom, every bucket holds n/k rows
		// up to the ties at its cut.
		counts := make([]int, k)
		for _, s := range ts {
			b := 0
			for b < len(cuts) && s >= cuts[b] {
				b++
			}
			counts[b]++
		}
		want := len(ts) / k
		for b, c := range counts {
			if c < want*9/10 || c > want*11/10 {
				t.Errorf("k=%d: bucket %d holds %d rows, want ≈%d", k, b, c, want)
			}
		}
	}
}

func TestCutsDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []interval.Time
		k    int
		want []interval.Time
	}{
		{"empty column", nil, 4, nil},
		{"k=1", []interval.Time{1, 3}, 1, nil},
		{"k=0", []interval.Time{1, 3}, 0, nil},
		// All rows share one ValidFrom: no useful cut exists.
		{"all-equal TS", []interval.Time{10, 10, 10, 10, 10, 10}, 4, nil},
		// n < k: indexes j·n/k repeat, and the duplicates drop.
		{"n < k", []interval.Time{1, 5, 9}, 8, []interval.Time{5, 9}},
		// Index n/k lands on the minimum: that cut would leave the
		// leading shard empty and drops.
		{"cut at the minimum", []interval.Time{2, 2, 2, 7, 8, 9}, 3, []interval.Time{8}},
		// Heavy ties: several j·n/k land on one value; it cuts once.
		{"heavy ties", []interval.Time{1, 4, 4, 4, 4, 4, 4, 9}, 4, []interval.Time{4}},
	} {
		got := Cuts(tc.ts, tc.k)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Cuts(%v, %d) = %v, want %v", tc.name, tc.ts, tc.k, got, tc.want)
		}
		if tc.want == nil && got != nil {
			t.Errorf("%s: want nil, got %v", tc.name, got)
		}
	}
}
