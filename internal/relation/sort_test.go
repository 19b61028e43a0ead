package relation

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"tdb/internal/interval"
)

// tagged is a lifespan with its input position, so a comparison of two
// sorted slices checks the exact sequence — which of several equal-key
// elements came first — and not just the multiset.
type tagged struct {
	iv interval.Interval
	id int
}

func taggedSpan(t tagged) interval.Interval { return t.iv }

func tag(ivs []interval.Interval) []tagged {
	out := make([]tagged, len(ivs))
	for i, iv := range ivs {
		out[i] = tagged{iv: iv, id: i}
	}
	return out
}

// sortOrders covers the four elementary keys, composite orders in both
// directions, a redundant third key and the empty order.
var sortOrders = []Order{
	{TSAsc}, {TSDesc}, {TEAsc}, {TEDesc},
	{TSAsc, TEAsc}, {TSDesc, TEDesc}, {TEAsc, TSDesc}, {TEDesc, TSAsc},
	{TSAsc, TSDesc, TEAsc}, {TEAsc, TEAsc}, {},
}

// checkAgainstReference holds SortSpans and OrderSpans to sort.SliceStable
// under Order.Compare as an exact sequence, and SortKey to Order.Compare.
func checkAgainstReference(t *testing.T, ivs []interval.Interval, o Order) {
	t.Helper()
	want := tag(ivs)
	sort.SliceStable(want, func(i, j int) bool { return o.Compare(want[i].iv, want[j].iv) < 0 })

	got := tag(ivs)
	SortSpans(got, taggedSpan, o)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortSpans order %v n=%d: position %d holds %v, reference %v", o, len(ivs), i, got[i], want[i])
		}
	}

	in := tag(ivs)
	perm, ts, te := OrderSpans(in, taggedSpan, o)
	if len(ts) != len(want) || len(te) != len(want) || (perm != nil && len(perm) != len(want)) {
		t.Fatalf("OrderSpans order %v: lengths %d/%d/%d, want %d", o, len(perm), len(ts), len(te), len(want))
	}
	if wasSorted := SortedSpans(in, taggedSpan, o); (perm == nil) != wasSorted {
		t.Fatalf("OrderSpans order %v: nil perm = %v on input with SortedSpans=%v", o, perm == nil, wasSorted)
	}
	for i := range want {
		at := in[i]
		if perm != nil {
			at = in[perm[i]]
		}
		if at != want[i] || ts[i] != want[i].iv.Start || te[i] != want[i].iv.End {
			t.Fatalf("OrderSpans order %v n=%d: position %d holds %v [%d,%d), reference %v", o, len(ivs), i, at, ts[i], te[i], want[i])
		}
		if in[i].id != i {
			t.Fatalf("OrderSpans order %v: input mutated at %d", o, i)
		}
	}

	for i := 1; i < len(ivs) && i < 64; i++ {
		a, b := ivs[i-1], ivs[i]
		if got, want := o.SortKey(a).Less(o.SortKey(b)), o.Compare(a, b) < 0; got != want {
			t.Fatalf("order %v: SortKey(%v).Less(SortKey(%v)) = %v, Compare says %v", o, a, b, got, want)
		}
	}
}

// sortInputs generates the shapes the sort must survive: dense duplicates,
// open-ended (Forever) lifespans, negative chronons, the full int64 range,
// all-equal, already sorted and reversed inputs.
func sortInputs(rng *rand.Rand, n int) map[string][]interval.Interval {
	gen := func(f func(i int) interval.Interval) []interval.Interval {
		out := make([]interval.Interval, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	shapes := map[string][]interval.Interval{
		"duplicates": gen(func(int) interval.Interval {
			s := interval.Time(rng.Intn(8))
			return interval.Interval{Start: s, End: s + 1 + interval.Time(rng.Intn(3))}
		}),
		"forever": gen(func(int) interval.Interval {
			s := interval.Time(rng.Intn(1 << 20))
			if rng.Intn(10) == 0 {
				return interval.Interval{Start: s, End: interval.Forever}
			}
			return interval.Interval{Start: s, End: s + 1 + interval.Time(rng.Intn(500))}
		}),
		"negative": gen(func(int) interval.Interval {
			s := interval.Time(rng.Intn(2001) - 1000)
			return interval.Interval{Start: s, End: s + interval.Time(rng.Intn(40)-20)}
		}),
		"fullrange": gen(func(int) interval.Interval {
			return interval.Interval{Start: interval.Time(rng.Uint64()), End: interval.Time(rng.Uint64())}
		}),
		"allequal": gen(func(int) interval.Interval { return interval.Interval{Start: -7, End: interval.Forever} }),
		"ascending": gen(func(i int) interval.Interval {
			return interval.Interval{Start: interval.Time(i / 3), End: interval.Time(i/3 + i%3 + 1)}
		}),
		"descending": gen(func(i int) interval.Interval {
			return interval.Interval{Start: interval.Time((n - i) / 2), End: interval.Time((n-i)/2 + 5)}
		}),
	}
	return shapes
}

func TestSortSpansMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{0, 1, 2, 3, insertionMax, insertionMax + 1, 257, 1001, 1<<16 + 1}
	for _, n := range sizes {
		orders := sortOrders
		if n > 1<<16 {
			// The large size is about index width and pass count, not
			// every order; the reference sort is what takes the time.
			orders = []Order{{TSAsc}, {TEDesc}, {TSAsc, TEAsc}}
		}
		for _, ivs := range sortInputs(rng, n) {
			for _, o := range orders {
				checkAgainstReference(t, ivs, o)
			}
		}
	}
}

// TestSortSpansRefinesLikeComposite pins the doc comment's promise: sorting
// by the secondary key and then by the primary equals one composite sort.
func TestSortSpansRefinesLikeComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ivs := sortInputs(rng, 500)["duplicates"]
	twice, once := tag(ivs), tag(ivs)
	SortSpans(twice, taggedSpan, Order{TEDesc})
	SortSpans(twice, taggedSpan, Order{TSAsc})
	SortSpans(once, taggedSpan, Order{TSAsc, TEDesc})
	for i := range once {
		if twice[i] != once[i] {
			t.Fatalf("position %d: refined %v, composite %v", i, twice[i], once[i])
		}
	}
}

// TestSortScratchSurvivesCollections pins what the free list is for: a
// caller that collects between sorts still finds the scratch, so every sort
// after the first costs the same. (A sync.Pool drops the scratch at the
// second collection, and this test fails on one.)
func TestSortScratchSurvivesCollections(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := tag(sortInputs(rng, 5000)["forever"])
	orders := []Order{{TSAsc}, {TEDesc}}
	SortSpans(xs, taggedSpan, orders[1])
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		SortSpans(xs, taggedSpan, orders[i%2])
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(16*len(xs)) {
			t.Errorf("sort %d after two collections allocated %d bytes; the scratch (%d bytes) was not reused", i, got, 48*len(xs))
		}
	}
}

// FuzzSortSpans decodes an order and a list of lifespans from the input —
// compact (a signed byte start, a byte duration: dense duplicates) or wide
// (two raw int64s: every digit of the radix in play) — and holds the sort
// to the stable reference.
func FuzzSortSpans(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 0, 3, 1, 3, 1, 250, 9, 0, 0, 3, 2})
	f.Add([]byte{3, 1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80,
		0, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	long := make([]byte, 2+2*(insertionMax+40))
	for i := range long {
		long[i] = byte(i * 37)
	}
	long[0], long[1] = 5, 0
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		o := sortOrders[int(data[0])%len(sortOrders)]
		wide := data[1]&1 == 1
		data = data[2:]
		var ivs []interval.Interval
		if wide {
			for ; len(data) >= 16; data = data[16:] {
				ivs = append(ivs, interval.Interval{
					Start: interval.Time(binary.LittleEndian.Uint64(data)),
					End:   interval.Time(binary.LittleEndian.Uint64(data[8:])),
				})
			}
		} else {
			for ; len(data) >= 2; data = data[2:] {
				s := interval.Time(int8(data[0]))
				ivs = append(ivs, interval.Interval{Start: s, End: s + interval.Time(data[1])})
			}
		}
		checkAgainstReference(t, ivs, o)
	})
}
