package baseline

import (
	"math/rand"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/metrics"
)

type item struct {
	id int
	iv interval.Interval
}

func itemSpan(t item) interval.Interval { return t.iv }

func gen(rng *rand.Rand, n, base int) []item {
	out := make([]item, n)
	for i := range out {
		s := interval.Time(rng.Intn(60))
		out[i] = item{id: base + i, iv: interval.New(s, s+interval.Time(1+rng.Intn(25)))}
	}
	return out
}

func contain(a, b interval.Interval) bool { return a.Start < b.Start && b.End < a.End }

func TestNestedLoopJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := gen(rng, 20, 0), gen(rng, 25, 100)
	probe := &metrics.Probe{}
	pairs := map[[2]int]bool{}
	NestedLoopJoin(xs, ys, itemSpan, contain, probe, func(a, b item) {
		pairs[[2]int{a.id, b.id}] = true
	})
	// Exhaustive cross-check.
	want := 0
	for _, a := range xs {
		for _, b := range ys {
			if contain(a.iv, b.iv) {
				want++
				if !pairs[[2]int{a.id, b.id}] {
					t.Fatalf("missing pair %d,%d", a.id, b.id)
				}
			}
		}
	}
	if len(pairs) != want {
		t.Fatalf("pairs %d, want %d", len(pairs), want)
	}
	if probe.Comparisons != int64(len(xs)*len(ys)) {
		t.Errorf("comparisons %d, want %d", probe.Comparisons, len(xs)*len(ys))
	}
	if probe.Passes != int64(len(xs)) {
		t.Errorf("passes %d, want one inner scan per outer tuple (%d)", probe.Passes, len(xs))
	}
}

func TestNestedLoopSemijoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys := gen(rng, 30, 0), gen(rng, 30, 100)
	got := map[int]bool{}
	NestedLoopSemijoin(xs, ys, itemSpan, contain, nil, func(a item) {
		if got[a.id] {
			t.Fatalf("duplicate %d", a.id)
		}
		got[a.id] = true
	})
	for _, a := range xs {
		want := false
		for _, b := range ys {
			if contain(a.iv, b.iv) {
				want = true
				break
			}
		}
		if got[a.id] != want {
			t.Fatalf("id %d: got %v want %v", a.id, got[a.id], want)
		}
	}
}

// The semijoin stops its inner scan at the first witness.
func TestNestedLoopSemijoinEarlyExit(t *testing.T) {
	xs := []item{{0, interval.New(0, 100)}}
	ys := []item{{1, interval.New(1, 2)}, {2, interval.New(3, 4)}, {3, interval.New(5, 6)}}
	probe := &metrics.Probe{}
	NestedLoopSemijoin(xs, ys, itemSpan, contain, probe, func(item) {})
	if probe.Comparisons != 1 {
		t.Errorf("comparisons %d, want 1 (first witness)", probe.Comparisons)
	}
}

// The governed-fallback band scan must agree with the nested loop for
// every intersection-implying θ, across many random inputs.
func TestSortMergeAgainstNestedLoop(t *testing.T) {
	thetas := map[string]func(a, b interval.Interval) bool{
		"contain":   contain,
		"contained": func(a, b interval.Interval) bool { return contain(b, a) },
		"overlap":   func(a, b interval.Interval) bool { return a.Intersects(b) },
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		xs, ys := gen(rng, 5+rng.Intn(40), 0), gen(rng, 5+rng.Intn(40), 1000)
		for name, theta := range thetas {
			want := map[[2]int]bool{}
			NestedLoopJoin(xs, ys, itemSpan, theta, nil, func(a, b item) {
				want[[2]int{a.id, b.id}] = true
			})
			got := map[[2]int]bool{}
			probe := &metrics.Probe{}
			SortMergeJoin(xs, ys, itemSpan, theta, probe, func(a, b item) {
				if got[[2]int{a.id, b.id}] {
					t.Fatalf("%s trial %d: duplicate pair %d,%d", name, trial, a.id, b.id)
				}
				got[[2]int{a.id, b.id}] = true
			})
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d pairs, want %d", name, trial, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%s trial %d: missing pair %v", name, trial, p)
				}
			}
			if probe.StateHighWater != 0 {
				t.Errorf("%s: band scan retained state (%d); must be buffers-only", name, probe.StateHighWater)
			}
		}
	}
}

// The band scan's emission order is deterministic: x in (TS, TE) order,
// bands in (TS, TE) order — two runs produce identical sequences.
func TestSortMergeDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ys := gen(rng, 30, 0), gen(rng, 30, 100)
	run := func() [][2]int {
		var out [][2]int
		SortMergeJoin(xs, ys, itemSpan, func(a, b interval.Interval) bool { return a.Intersects(b) },
			nil, func(a, b item) { out = append(out, [2]int{a.id, b.id}) })
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
