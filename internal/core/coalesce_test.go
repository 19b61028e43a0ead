package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/stream"
)

type keyed struct {
	k  string
	iv interval.Interval
}

func keyedKey(t keyed) string             { return t.k }
func keyedSpan(t keyed) interval.Interval { return t.iv }
func keyedWrap(t keyed, iv interval.Interval) keyed {
	t.iv = iv
	return t
}

func coalesceAll(t *testing.T, in []keyed, probe *metrics.Probe) []keyed {
	t.Helper()
	var out []keyed
	err := Coalesce(stream.FromSlice(in), keyedKey, keyedSpan, keyedWrap,
		Options{Probe: probe}, func(x keyed) { out = append(out, x) })
	if err != nil {
		t.Fatalf("coalesce: %v", err)
	}
	return out
}

func TestCoalesceBasics(t *testing.T) {
	in := []keyed{
		{"a", interval.New(0, 5)},
		{"a", interval.New(5, 9)},   // meets: extends
		{"a", interval.New(7, 12)},  // overlaps: extends
		{"a", interval.New(14, 20)}, // gap: new period
		{"b", interval.New(14, 16)}, // new key
	}
	probe := &metrics.Probe{}
	out := coalesceAll(t, in, probe)
	want := []keyed{
		{"a", interval.New(0, 12)},
		{"a", interval.New(14, 20)},
		{"b", interval.New(14, 16)},
	}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if probe.StateHighWater != 1 {
		t.Errorf("state %d, want 1 pending element", probe.StateHighWater)
	}
	if probe.Emitted != 3 {
		t.Errorf("emitted %d", probe.Emitted)
	}
}

func TestCoalesceContainedPeriod(t *testing.T) {
	// A period wholly inside the open one must not shrink its end.
	in := []keyed{
		{"a", interval.New(0, 20)},
		{"a", interval.New(3, 7)},
	}
	out := coalesceAll(t, in, nil)
	if len(out) != 1 || out[0].iv != interval.New(0, 20) {
		t.Fatalf("out = %v", out)
	}
}

func TestCoalesceEdges(t *testing.T) {
	if out := coalesceAll(t, nil, nil); len(out) != 0 {
		t.Errorf("empty input: %v", out)
	}
	one := []keyed{{"a", interval.New(3, 4)}}
	if out := coalesceAll(t, one, nil); len(out) != 1 || out[0] != one[0] {
		t.Errorf("singleton: %v", out)
	}
	// Unsorted group rejected.
	bad := []keyed{{"a", interval.New(5, 9)}, {"a", interval.New(1, 2)}}
	err := Coalesce(stream.FromSlice(bad), keyedKey, keyedSpan, keyedWrap, Options{}, func(keyed) {})
	if err == nil {
		t.Error("unsorted group accepted")
	}
}

// Properties: per key, the output covers exactly the chronons the input
// covers; output periods are disjoint, non-meeting, and ValidFrom-ordered.
func TestCoalesceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var in []keyed
		for _, k := range []string{"a", "b", "c"} {
			n := rng.Intn(15)
			var group []keyed
			for i := 0; i < n; i++ {
				s := interval.Time(rng.Intn(40))
				group = append(group, keyed{k, interval.New(s, s+interval.Time(1+rng.Intn(10)))})
			}
			sort.Slice(group, func(i, j int) bool { return group[i].iv.Start < group[j].iv.Start })
			in = append(in, group...)
		}
		var out []keyed
		if err := Coalesce(stream.FromSlice(in), keyedKey, keyedSpan, keyedWrap,
			Options{}, func(x keyed) { out = append(out, x) }); err != nil {
			return false
		}
		covered := func(items []keyed, k string, t interval.Time) bool {
			for _, it := range items {
				if it.k == k && it.iv.Contains(t) {
					return true
				}
			}
			return false
		}
		for _, k := range []string{"a", "b", "c"} {
			for t := interval.Time(-1); t < 60; t++ {
				if covered(in, k, t) != covered(out, k, t) {
					return false
				}
			}
			// Output periods per key: ordered, disjoint, non-meeting.
			var prev *keyed
			for i := range out {
				if out[i].k != k {
					continue
				}
				if prev != nil && out[i].iv.Start <= prev.iv.End {
					return false
				}
				p := out[i]
				prev = &p
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Coalesce then join: the coalesced stream feeds a contain join directly
// (order preservation in action).
func TestCoalesceFeedsJoin(t *testing.T) {
	history := []keyed{
		{"x", interval.New(0, 10)},
		{"x", interval.New(10, 30)}, // coalesces to [0,30)
	}
	inner := []keyed{{"y", interval.New(5, 25)}}
	var coalesced []keyed
	if err := Coalesce(stream.FromSlice(history), keyedKey, keyedSpan, keyedWrap, Options{},
		func(k keyed) { coalesced = append(coalesced, k) }); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := ContainJoinTSTS[keyed](stream.FromSlice(coalesced), stream.FromSlice(inner), keyedSpan,
		Options{}, func(a, b keyed) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("joined %d pairs, want 1 (only after coalescing does [0,30) contain [5,25))", n)
	}
}
