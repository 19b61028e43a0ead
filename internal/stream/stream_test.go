package stream

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tdb/internal/interval"
)

func ints(xs ...int) Stream[int] { return FromSlice(xs) }

func mustCollect[T any](t *testing.T, s Stream[T]) []T {
	t.Helper()
	out, err := Collect(s)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return out
}

func TestFromSliceAndCollect(t *testing.T) {
	got := mustCollect(t, ints(1, 2, 3))
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
	if got := mustCollect(t, Empty[int]()); len(got) != 0 {
		t.Errorf("Empty yielded %v", got)
	}
	// Exhausted stream keeps returning ok=false.
	s := ints(1)
	s.Next()
	if _, ok := s.Next(); ok {
		t.Error("stream yielded past end")
	}
	if _, ok := s.Next(); ok {
		t.Error("stream yielded past end twice")
	}
}

func TestFilter(t *testing.T) {
	even := Filter(ints(1, 2, 3, 4, 5, 6), func(x int) bool { return x%2 == 0 })
	if got := mustCollect(t, even); len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Errorf("Filter: %v", got)
	}
}

func TestFuncStream(t *testing.T) {
	i := 0
	f := &Func[int]{F: func() (int, bool, error) {
		i++
		if i > 3 {
			return 0, false, nil
		}
		return i * 10, true, nil
	}}
	if got := mustCollect(t, Stream[int](f)); len(got) != 3 || got[2] != 30 {
		t.Errorf("Func: %v", got)
	}

	boom := errors.New("boom")
	g := &Func[int]{F: func() (int, bool, error) { return 0, false, boom }}
	if _, ok := g.Next(); ok {
		t.Error("failing Func yielded")
	}
	if g.Err() != boom {
		t.Errorf("Err = %v", g.Err())
	}
	// Error is sticky.
	if _, ok := g.Next(); ok || g.Err() != boom {
		t.Error("error not sticky")
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	base := FailAfter(ints(1, 2, 3, 4), 2, boom)
	pipeline := Filter(Filter(base, func(int) bool { return true }), func(int) bool { return true })
	var got []int
	for {
		x, ok := pipeline.Next()
		if !ok {
			break
		}
		got = append(got, x)
	}
	if len(got) != 2 {
		t.Errorf("got %v before failure", got)
	}
	if !errors.Is(pipeline.Err(), boom) {
		t.Errorf("Err = %v", pipeline.Err())
	}

	// Collect returns the error.
	if _, err := Collect[int](FailAfter(ints(1, 2), 1, boom)); !errors.Is(err, boom) {
		t.Errorf("Collect err = %v", err)
	}
}

func TestCheckOrdered(t *testing.T) {
	span := func(iv interval.Interval) interval.Interval { return iv }
	byStart := func(a, b interval.Interval) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	}
	good := []interval.Interval{{Start: 1, End: 2}, {Start: 1, End: 9}, {Start: 4, End: 5}}
	s := CheckOrdered(FromSlice(good), span, byStart)
	if got := mustCollect(t, s); len(got) != 3 {
		t.Errorf("ordered stream truncated: %v", got)
	}

	bad := []interval.Interval{{Start: 4, End: 5}, {Start: 1, End: 2}}
	s = CheckOrdered(FromSlice(bad), span, byStart)
	x, ok := s.Next()
	if !ok || x.Start != 4 {
		t.Fatal("first element should pass")
	}
	if _, ok := s.Next(); ok {
		t.Error("out-of-order element yielded")
	}
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "out of order") {
		t.Errorf("Err = %v", s.Err())
	}
	// Sticky.
	if _, ok := s.Next(); ok || s.Err() == nil {
		t.Error("order error not sticky")
	}
}

func TestGroupSumFigure4(t *testing.T) {
	// The Figure 4 processor: employees grouped by department; output one
	// (dept, sum-of-salaries) pair per department.
	type emp struct {
		dept   string
		salary int64
	}
	emps := []emp{
		{"cs", 10}, {"cs", 20}, {"ee", 5}, {"math", 7}, {"math", 3},
	}
	out := mustCollect(t, GroupSum(FromSlice(emps),
		func(e emp) string { return e.dept },
		func(e emp) int64 { return e.salary }))
	want := []Pair[string, int64]{{"cs", 30}, {"ee", 5}, {"math", 10}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("group %d: got %v, want %v", i, out[i], want[i])
		}
	}
}

func TestGroupReduceEdges(t *testing.T) {
	// Empty input: no groups.
	out := mustCollect(t, GroupCount(Empty[int](), func(x int) int { return x }))
	if len(out) != 0 {
		t.Errorf("empty input produced %v", out)
	}
	// Single group.
	out = mustCollect(t, GroupCount(ints(7, 7, 7), func(x int) int { return x }))
	if len(out) != 1 || out[0] != (Pair[int, int64]{7, 3}) {
		t.Errorf("single group: %v", out)
	}
	// Every element its own group.
	out = mustCollect(t, GroupCount(ints(1, 2, 3), func(x int) int { return x }))
	if len(out) != 3 || out[2] != (Pair[int, int64]{3, 1}) {
		t.Errorf("singleton groups: %v", out)
	}
	// Error during a group: no partial emission after error.
	boom := errors.New("boom")
	g := GroupCount(FailAfter(ints(1, 1, 1), 2, boom), func(x int) int { return x })
	if _, ok := g.Next(); ok {
		t.Error("group emitted despite failure")
	}
	if !errors.Is(g.Err(), boom) {
		t.Errorf("Err = %v", g.Err())
	}
}

// Property: GroupSum over grouped input equals a map-based sum, and output
// group order equals first-occurrence order.
func TestGroupSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		type rec struct {
			k string
			v int64
		}
		var recs []rec
		key := 0
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				key++
			}
			recs = append(recs, rec{k: strings.Repeat("k", key%5+1), v: int64(rng.Intn(100))})
		}
		// Group input (adjacent equal keys) by stable reordering.
		grouped := make([]rec, 0, len(recs))
		seen := []string{}
		by := map[string][]rec{}
		for _, r := range recs {
			if _, ok := by[r.k]; !ok {
				seen = append(seen, r.k)
			}
			by[r.k] = append(by[r.k], r)
		}
		for _, k := range seen {
			grouped = append(grouped, by[k]...)
		}
		out, err := Collect(GroupSum(FromSlice(grouped),
			func(r rec) string { return r.k }, func(r rec) int64 { return r.v }))
		if err != nil {
			return false
		}
		if len(out) != len(seen) {
			return false
		}
		for i, k := range seen {
			var want int64
			for _, r := range by[k] {
				want += r.v
			}
			if out[i].First != k || out[i].Second != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
