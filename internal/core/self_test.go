package core

import (
	"math/rand"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

// oracleSelfContained returns the ids of tuples strictly contained in some
// other tuple of the same set; oracleSelfContain the ids of tuples strictly
// containing some other tuple.
func oracleSelfContained(xs []item) map[int]bool {
	want := map[int]bool{}
	for _, a := range xs {
		for _, b := range xs {
			if a.id != b.id && containMatch(b.iv, a.iv) {
				want[a.id] = true
				break
			}
		}
	}
	return want
}

func oracleSelfContain(xs []item) map[int]bool {
	want := map[int]bool{}
	for _, a := range xs {
		for _, b := range xs {
			if a.id != b.id && containMatch(a.iv, b.iv) {
				want[a.id] = true
				break
			}
		}
	}
	return want
}

// Figure 7 worked example: the stream x1..x4 with x4 inside x3.
func TestContainedSelfSemijoinFigure7(t *testing.T) {
	xs := []item{
		{1, interval.New(0, 4)},
		{2, interval.New(1, 6)},
		{3, interval.New(2, 12)},
		{4, interval.New(3, 8)}, // during x3
	}
	probe := newProbe()
	got := collectSemi(t, func(emit func(item)) error {
		return ContainedSelfSemijoin(streamOf(xs), itemSpan,
			Options{Probe: probe, VerifyOrder: true}, emit)
	})
	sameSemi(t, "fig7", got, map[int]bool{4: true}, xs, nil)
	if probe.StateHighWater != 1 || probe.Workspace() != 2 {
		t.Errorf("Figure 7 workspace must be one state tuple + one buffer: state=%d ws=%d",
			probe.StateHighWater, probe.Workspace())
	}
	if probe.ReadLeft != 4 {
		t.Errorf("single scan violated: %d reads", probe.ReadLeft)
	}
}

// Equal-ValidFrom ties exercise the secondary-order replacement rule.
func TestContainedSelfSemijoinTies(t *testing.T) {
	cases := []struct {
		name string
		xs   []item
		want map[int]bool
	}{
		{
			"equal spans are not strict containment",
			[]item{{1, interval.New(5, 9)}, {2, interval.New(5, 9)}},
			map[int]bool{},
		},
		{
			"same start, longer end does not contain",
			[]item{{1, interval.New(5, 9)}, {2, interval.New(5, 20)}},
			map[int]bool{},
		},
		{
			"replacement must not lose the old container",
			// x2 replaces x1 as state (same TE reached), but x3 is inside x1 only.
			[]item{{1, interval.New(0, 10)}, {2, interval.New(5, 10)}, {3, interval.New(6, 9)}},
			map[int]bool{3: true},
		},
		{
			"tie then containment",
			[]item{{1, interval.New(0, 10)}, {2, interval.New(5, 8)}, {3, interval.New(5, 10)}},
			map[int]bool{2: true},
		},
	}
	for _, c := range cases {
		xs := sorted(c.xs, relation.Order{relation.TSAsc, relation.TEAsc})
		got := collectSemi(t, func(emit func(item)) error {
			return ContainedSelfSemijoin(streamOf(xs), itemSpan, Options{VerifyOrder: true}, emit)
		})
		sameSemi(t, c.name, got, c.want, xs, nil)
	}
}

// Property: all three self-semijoin variants agree with the exhaustive
// oracle; the optimal orderings keep exactly one state tuple (Table 3 (a)).
func TestSelfSemijoinsMatchOracle(t *testing.T) {
	type variant struct {
		name     string
		order    relation.Order
		oneState bool
		oracle   func([]item) map[int]bool
		run      func(xs stream.Stream[item], opt Options, emit func(item)) error
	}
	variants := []variant{
		{
			"contained(X,X)[TS↑,TE↑]", relation.Order{relation.TSAsc, relation.TEAsc}, true,
			oracleSelfContained,
			func(xs stream.Stream[item], opt Options, emit func(item)) error {
				return ContainedSelfSemijoin(xs, itemSpan, opt, emit)
			},
		},
		{
			"contain(X,X)[TS↓,TE↓]", relation.Order{relation.TSDesc, relation.TEDesc}, true,
			oracleSelfContain,
			func(xs stream.Stream[item], opt Options, emit func(item)) error {
				return ContainSelfSemijoin(xs, itemSpan, opt, emit)
			},
		},
		{
			"contain(X,X)[TS↑]", relation.Order{relation.TSAsc, relation.TEAsc}, false,
			oracleSelfContain,
			func(xs stream.Stream[item], opt Options, emit func(item)) error {
				return ContainSelfSemijoinTSAsc(xs, itemSpan, opt, emit)
			},
		},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(211))
			for trial := 0; trial < 300; trial++ {
				xs := sorted(genItems(rng, rng.Intn(35), 0), v.order)
				probe := newProbe()
				got := collectSemi(t, func(emit func(item)) error {
					return v.run(streamOf(xs), Options{Probe: probe, VerifyOrder: true}, emit)
				})
				sameSemi(t, v.name, got, v.oracle(xs), xs, nil)
				if v.oneState && probe.StateHighWater > 1 {
					t.Fatalf("%s: state high water %d, Table 3 promises 1", v.name, probe.StateHighWater)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}

// The self-semijoin output preserves input order.
func TestSelfSemijoinOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 50; trial++ {
		xs := sorted(genItems(rng, 30, 0), relation.Order{relation.TSAsc, relation.TEAsc})
		pos := map[int]int{}
		for i, x := range xs {
			pos[x.id] = i
		}
		last := -1
		err := ContainedSelfSemijoin(streamOf(xs), itemSpan, Options{}, func(x item) {
			if pos[x.id] < last {
				t.Fatal("contained(X,X) output out of order")
			}
			last = pos[x.id]
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfSemijoinEdges(t *testing.T) {
	// Empty and singleton inputs.
	for _, run := range []func(stream.Stream[item]) (int, error){
		func(s stream.Stream[item]) (int, error) {
			n := 0
			err := ContainedSelfSemijoin(s, itemSpan, Options{}, func(item) { n++ })
			return n, err
		},
		func(s stream.Stream[item]) (int, error) {
			n := 0
			err := ContainSelfSemijoin(s, itemSpan, Options{}, func(item) { n++ })
			return n, err
		},
	} {
		if n, err := run(stream.Empty[item]()); err != nil || n != 0 {
			t.Errorf("empty: n=%d err=%v", n, err)
		}
		if n, err := run(streamOf([]item{{1, interval.New(0, 5)}})); err != nil || n != 0 {
			t.Errorf("singleton: n=%d err=%v", n, err)
		}
	}
	// VerifyOrder catches a missing secondary sort.
	bad := []item{{1, interval.New(0, 9)}, {2, interval.New(0, 5)}} // TE descending tie
	if err := ContainedSelfSemijoin(streamOf(bad), itemSpan, Options{VerifyOrder: true}, func(item) {}); err == nil {
		t.Error("secondary-order violation accepted")
	}
}
