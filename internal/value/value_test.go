package value

import (
	"bytes"
	"cmp"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"tdb/internal/interval"
)

func TestKindsAndAccessors(t *testing.T) {
	i := Int(42)
	s := String_("hello")
	tm := TimeVal(7)

	if i.Kind() != KindInt || s.Kind() != KindString || tm.Kind() != KindTime {
		t.Fatal("kinds wrong")
	}
	if i.AsInt() != 42 {
		t.Error("AsInt")
	}
	if s.AsString() != "hello" {
		t.Error("AsString")
	}
	if tm.AsTime() != 7 {
		t.Error("AsTime")
	}
	// Int reinterpretable as time.
	if i.AsTime() != 42 {
		t.Error("int AsTime")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt(string)", func() { String_("x").AsInt() })
	mustPanic("AsString(int)", func() { Int(1).AsString() })
	mustPanic("AsTime(string)", func() { String_("x").AsTime() })
	mustPanic("Compare(int,string)", func() { Int(1).Compare(String_("x")) })
}

func TestCompare(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(3).Compare(Int(3)) != 0 {
		t.Error("int compare")
	}
	if String_("a").Compare(String_("b")) != -1 || String_("b").Compare(String_("a")) != 1 {
		t.Error("string compare")
	}
	if String_("a").Compare(String_("a")) != 0 {
		t.Error("string compare equal")
	}
	// int and time are mutually comparable.
	if !Int(5).Comparable(TimeVal(5)) || !Int(5).Equal(TimeVal(5)) {
		t.Error("int/time comparability")
	}
	if Int(5).Comparable(String_("5")) {
		t.Error("int/string must not be comparable")
	}
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Error("Less")
	}
}

// Compare is a total order on each kind: antisymmetric and transitive.
func TestCompareProperties(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int(a), Int(b), Int(c)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 && va.Compare(vc) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return String_(a).Compare(String_(b)) == -String_(b).Compare(String_(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	if Int(-3).String() != "-3" {
		t.Error("int rendering")
	}
	if String_("x").String() != "x" {
		t.Error("string rendering")
	}
	if TimeVal(12).String() != "12" {
		t.Error("time rendering")
	}
	if TimeVal(interval.Forever).String() != "∞" {
		t.Error("forever rendering")
	}
	if KindInt.String() != "int" || KindString.String() != "string" || KindTime.String() != "time" {
		t.Error("kind rendering")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		kind Kind
		in   string
		want Value
		ok   bool
	}{
		{KindInt, "42", Int(42), true},
		{KindInt, "-7", Int(-7), true},
		{KindInt, "x", Value{}, false},
		{KindString, "anything", String_("anything"), true},
		{KindTime, "99", TimeVal(99), true},
		{KindTime, "forever", TimeVal(interval.Forever), true},
		{KindTime, "∞", TimeVal(interval.Forever), true},
		{KindTime, "soon", Value{}, false},
	}
	for _, c := range cases {
		got, err := Parse(c.kind, c.in)
		if (err == nil) != c.ok {
			t.Errorf("Parse(%v, %q) err = %v, want ok=%v", c.kind, c.in, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("Parse(%v, %q) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
	if _, err := Parse(Kind(9), "x"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Round trip: rendering then parsing is the identity for every kind.
func TestParseRoundTrip(t *testing.T) {
	f := func(i int64, s string) bool {
		vi, err1 := Parse(KindInt, Int(i).String())
		vt, err2 := Parse(KindTime, TimeVal(interval.Time(i)).String())
		vs, err3 := Parse(KindString, String_(s).String())
		return err1 == nil && err2 == nil && err3 == nil &&
			vi.Equal(Int(i)) && vt.Equal(TimeVal(interval.Time(i))) && vs.Equal(String_(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The layout is the point of the representation: two words per cell.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable; == would compare string identity, not contents")
	}
}

// refValue is the previous three-field representation, kept as the
// reference the packed layout must reproduce operation for operation.
type refValue struct {
	kind Kind
	i    int64
	s    string
}

func (r refValue) comparable(o refValue) bool {
	numeric := func(k Kind) bool { return k == KindInt || k == KindTime }
	return r.kind == o.kind || numeric(r.kind) && numeric(o.kind)
}

func (r refValue) compare(o refValue) int {
	if r.kind == KindString {
		return strings.Compare(r.s, o.s)
	}
	return cmp.Compare(r.i, o.i)
}

func (r refValue) String() string {
	switch {
	case r.kind == KindString:
		return r.s
	case r.kind == KindTime && interval.Time(r.i) == interval.Forever:
		return "∞"
	}
	return strconv.FormatInt(r.i, 10)
}

func (r refValue) value() Value {
	switch r.kind {
	case KindString:
		return String_(r.s)
	case KindTime:
		return TimeVal(interval.Time(r.i))
	}
	return Int(r.i)
}

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// checkAgainstRef holds one value to the reference on every accessor, and
// a pair of values on every comparison.
func checkAgainstRef(t *testing.T, a, b refValue) {
	t.Helper()
	va, vb := a.value(), b.value()
	if va.Kind() != a.kind {
		t.Fatalf("%#v: Kind = %v", a, va.Kind())
	}
	if got := va.String(); got != a.String() {
		t.Fatalf("%#v: String = %q, want %q", a, got, a.String())
	}
	isStr := a.kind == KindString
	if panics(func() { va.AsInt() }) != isStr || panics(func() { va.AsTime() }) != isStr ||
		panics(func() { va.AsString() }) == isStr {
		t.Fatalf("%#v: accessor panics disagree with kind", a)
	}
	if isStr && va.AsString() != a.s {
		t.Fatalf("%#v: AsString = %q", a, va.AsString())
	}
	if !isStr && (va.AsInt() != a.i || va.AsTime() != interval.Time(a.i)) {
		t.Fatalf("%#v: AsInt = %d", a, va.AsInt())
	}
	ok := a.comparable(b)
	if va.Comparable(vb) != ok {
		t.Fatalf("Comparable(%#v, %#v) = %v, want %v", a, b, !ok, ok)
	}
	if !ok {
		if !panics(func() { va.Compare(vb) }) || va.Equal(vb) {
			t.Fatalf("(%#v, %#v): incomparable pair compared", a, b)
		}
		return
	}
	want := a.compare(b)
	if got := va.Compare(vb); got != want {
		t.Fatalf("Compare(%#v, %#v) = %d, want %d", a, b, got, want)
	}
	if va.Equal(vb) != (want == 0) || va.Less(vb) != (want < 0) {
		t.Fatalf("Equal/Less(%#v, %#v) disagree with Compare %d", a, b, want)
	}
}

// refCorpus covers the representation's edges: the zero Value, the empty
// string, substrings sharing one heap buffer, non-UTF-8 bytes, Forever,
// the int64 extremes, and ints equal to chronons.
func refCorpus() []refValue {
	heap := strings.Repeat("abc\xff\x00", 8)
	return []refValue{
		{}, {kind: KindInt, i: 1}, {kind: KindInt, i: -1},
		{kind: KindInt, i: math.MinInt64}, {kind: KindInt, i: math.MaxInt64},
		{kind: KindTime}, {kind: KindTime, i: 1}, {kind: KindTime, i: math.MinInt64},
		{kind: KindTime, i: int64(interval.Forever)}, {kind: KindInt, i: int64(interval.Forever)},
		{kind: KindString}, {kind: KindString, s: heap[:0]}, {kind: KindString, s: heap[5:5]},
		{kind: KindString, s: heap[:3]}, {kind: KindString, s: heap[5:8]}, {kind: KindString, s: heap[:4]},
		{kind: KindString, s: heap[3:5]}, {kind: KindString, s: heap},
		{kind: KindString, s: "abc"}, {kind: KindString, s: "\xff"}, {kind: KindString, s: "∞"},
		{kind: KindString, s: "0"}, {kind: KindString, s: "-1"},
	}
}

func TestValueMatchesReference(t *testing.T) {
	corpus := refCorpus()
	for _, a := range corpus {
		for _, b := range corpus {
			checkAgainstRef(t, a, b)
		}
	}
	// Equal strings in different buffers are Equal (the contents, not the
	// data pointer, decide).
	x, y := String_("abc"), String_(string([]byte("xabc")[1:]))
	if !x.Equal(y) || x.Compare(y) != 0 {
		t.Fatal("equal strings from different buffers compare unequal")
	}
	f := func(ai, bi int64, as, bs string, ak, bk uint8) bool {
		a := refValue{kind: Kind(ak % 3), i: ai, s: as}
		b := refValue{kind: Kind(bk % 3), i: bi, s: bs}
		if a.kind == KindString {
			a.i = 0
		} else {
			a.s = ""
		}
		if b.kind == KindString {
			b.i = 0
		} else {
			b.s = ""
		}
		checkAgainstRef(t, a, b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, in := range []string{"", "0", "-0", "42", "-9223372036854775808", "9223372036854775807",
		"9223372036854775808", "forever", "∞", "Forever", " 1", "\xff", "abc"} {
		for _, k := range []Kind{KindInt, KindString, KindTime} {
			got, err := Parse(k, in)
			var want refValue
			wantOK := true
			switch k {
			case KindString:
				want = refValue{kind: k, s: in}
			default:
				if k == KindTime && (in == "forever" || in == "∞") {
					want = refValue{kind: k, i: int64(interval.Forever)}
					break
				}
				i, perr := strconv.ParseInt(in, 10, 64)
				want, wantOK = refValue{kind: k, i: i}, perr == nil
			}
			if (err == nil) != wantOK {
				t.Fatalf("Parse(%v, %q) err = %v, want ok=%v", k, in, err, wantOK)
			}
			if wantOK && (got.Kind() != want.kind || !got.Equal(want.value()) || got.String() != want.String()) {
				t.Fatalf("Parse(%v, %q) = %v (%v), want %v", k, in, got, got.Kind(), want)
			}
		}
	}
}

// A string Value holds an ordinary pointer into the string's buffer, so a
// Value cut from the middle of a larger heap string keeps the whole buffer
// alive after every other reference is gone.
func TestStringValueSurvivesGC(t *testing.T) {
	const n = 64
	vals := make([]Value, n)
	want := make([]string, n)
	for i := range vals {
		buf := []byte(strings.Repeat(strconv.Itoa(i), 1000))
		s := string(buf) // a fresh heap string, referenced only by the Value below
		want[i] = strings.Clone(s[100:140])
		vals[i] = String_(s[100:140])
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		// Churn the heap so a freed buffer would be overwritten.
		junk := make([][]byte, 0, 256)
		for i := 0; i < 256; i++ {
			junk = append(junk, bytes.Repeat([]byte{'#'}, 1000))
		}
		runtime.KeepAlive(junk)
	}
	for i, v := range vals {
		if got := v.AsString(); got != want[i] {
			t.Fatalf("value %d = %q after GC, want %q", i, got, want[i])
		}
	}
}

// FuzzValue holds the packed representation to the reference on arbitrary
// payloads: kinds, accessors, ordering, equality, and the String/Parse
// round trip.
func FuzzValue(f *testing.F) {
	f.Add(uint8(0), int64(0), "", uint8(1), int64(0), "")
	f.Add(uint8(1), int64(0), "a\xffb", uint8(1), int64(0), "a\xff")
	f.Add(uint8(2), int64(interval.Forever), "", uint8(0), int64(math.MinInt64), "")
	f.Fuzz(func(t *testing.T, ak uint8, ai int64, as string, bk uint8, bi int64, bs string) {
		a := refValue{kind: Kind(ak % 3)}
		b := refValue{kind: Kind(bk % 3)}
		if a.kind == KindString {
			a.s = as
		} else {
			a.i = ai
		}
		if b.kind == KindString {
			// A substring of a's payload exercises shared buffers.
			if len(as) > 0 && bi%2 == 0 {
				lo := int(uint64(bi) % uint64(len(as)))
				b.s = as[lo:]
			} else {
				b.s = bs
			}
		} else {
			b.i = bi
		}
		checkAgainstRef(t, a, b)
		checkAgainstRef(t, b, a)
		v := a.value()
		if back, err := Parse(a.kind, v.String()); err != nil || !back.Equal(v) || back.Kind() != v.Kind() {
			t.Fatalf("Parse(%v, %q) = %v, %v; want %v", a.kind, v.String(), back, err, v)
		}
	})
}
