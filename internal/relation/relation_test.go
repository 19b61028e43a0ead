package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tdb/internal/interval"
	"tdb/internal/value"
)

func facultySchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "Name", Kind: value.KindString},
		{Name: "Rank", Kind: value.KindString},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func facultyRow(name, rank string, from, to interval.Time) Row {
	return Row{value.String_(name), value.String_(rank), value.TimeVal(from), value.TimeVal(to)}
}

func TestSchemaValidation(t *testing.T) {
	cols := []Column{
		{Name: "A", Kind: value.KindString},
		{Name: "F", Kind: value.KindTime},
		{Name: "T", Kind: value.KindTime},
	}
	if _, err := NewSchema(cols, 1, 2); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	if _, err := NewSchema(cols, -1, -1); err != nil {
		t.Errorf("snapshot schema rejected: %v", err)
	}
	bad := []struct {
		name   string
		cols   []Column
		ts, te int
	}{
		{"ts without te", cols, 1, -1},
		{"same column", cols, 1, 1},
		{"out of range", cols, 1, 5},
		{"non-time ts", cols, 0, 2},
		{"dup names", []Column{{Name: "A", Kind: value.KindInt}, {Name: "A", Kind: value.KindInt}}, -1, -1},
		{"empty name", []Column{{Name: "", Kind: value.KindInt}}, -1, -1},
	}
	for _, c := range bad {
		if _, err := NewSchema(c.cols, c.ts, c.te); err == nil {
			t.Errorf("%s: schema accepted, want error", c.name)
		}
	}
}

func TestSchemaStringAndLookup(t *testing.T) {
	s := facultySchema(t)
	if !s.Temporal() || s.Arity() != 4 {
		t.Fatal("schema misreports shape")
	}
	if i := s.ColumnIndex("Rank"); i != 1 {
		t.Errorf("ColumnIndex(Rank) = %d", i)
	}
	if i := s.ColumnIndex("nope"); i != -1 {
		t.Errorf("ColumnIndex(nope) = %d", i)
	}
	str := s.String()
	if !strings.Contains(str, "ValidFrom:time*") {
		t.Errorf("String does not mark temporal columns: %s", str)
	}
}

func TestSchemaConcatAndRename(t *testing.T) {
	s := facultySchema(t)
	c := Concat(s, s, "f1", "f2")
	if c.Temporal() {
		t.Error("concat schema must be snapshot")
	}
	if c.Arity() != 8 {
		t.Errorf("concat arity = %d", c.Arity())
	}
	if c.ColumnIndex("f1.Name") != 0 || c.ColumnIndex("f2.ValidTo") != 7 {
		t.Error("concat column names not qualified as expected")
	}
	r := s.Rename("f3")
	if !r.Temporal() || r.ColumnIndex("f3.Rank") != 1 {
		t.Error("rename lost structure")
	}
	if !s.Equal(s) || s.Equal(c) {
		t.Error("schema equality misbehaves")
	}
}

func TestInsertValidation(t *testing.T) {
	r := New("Faculty", facultySchema(t))
	if err := r.Insert(facultyRow("Smith", "Assistant", 1, 5)); err != nil {
		t.Fatalf("valid insert failed: %v", err)
	}
	if err := r.Insert(facultyRow("Smith", "Assistant", 5, 5)); err == nil {
		t.Error("empty lifespan accepted")
	}
	if err := r.Insert(facultyRow("Smith", "Assistant", 9, 5)); err == nil {
		t.Error("reversed lifespan accepted")
	}
	if err := r.Insert(Row{value.String_("x")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.Insert(Row{value.Int(1), value.String_("r"), value.TimeVal(1), value.TimeVal(2)}); err == nil {
		t.Error("wrong kind accepted")
	}
	if r.Cardinality() != 1 {
		t.Errorf("cardinality = %d, want 1", r.Cardinality())
	}
	if err := r.Check(); err != nil {
		t.Errorf("Check on valid relation: %v", err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	ts := []Tuple{
		{S: "Smith", V: value.String_("Assistant"), Span: interval.New(1, 5)},
		{S: "Jones", V: value.String_("Full"), Span: interval.New(3, 9)},
	}
	r := FromTuples("F", ts)
	back := r.Tuples()
	if len(back) != 2 {
		t.Fatalf("round trip lost tuples: %d", len(back))
	}
	for i := range ts {
		if back[i].S != ts[i].S || !back[i].V.Equal(ts[i].V) || back[i].Span != ts[i].Span {
			t.Errorf("tuple %d: got %v, want %v", i, back[i], ts[i])
		}
	}
	if err := ts[0].Check(); err != nil {
		t.Errorf("valid tuple check: %v", err)
	}
	badTuple := Tuple{S: "x", V: value.Int(1), Span: interval.New(5, 5)}
	if err := badTuple.Check(); err == nil {
		t.Error("invalid tuple accepted")
	}
}

func TestOrderSorting(t *testing.T) {
	spans := []interval.Interval{
		interval.New(5, 9), interval.New(1, 20), interval.New(5, 7), interval.New(3, 4),
	}
	id := func(iv interval.Interval) interval.Interval { return iv }

	byTS := Order{TSAsc, TEAsc}
	SortSpans(spans, id, byTS)
	want := []interval.Interval{{Start: 1, End: 20}, {Start: 3, End: 4}, {Start: 5, End: 7}, {Start: 5, End: 9}}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("TS↑,TE↑ sort: got %v", spans)
		}
	}
	if !SortedSpans(spans, id, byTS) {
		t.Error("SortedSpans false on sorted data")
	}
	if err := CheckSortedSpans(spans, id, byTS); err != nil {
		t.Errorf("CheckSortedSpans: %v", err)
	}

	byTEDesc := Order{TEDesc}
	SortSpans(spans, id, byTEDesc)
	if spans[0].End != 20 || spans[3].End != 4 {
		t.Fatalf("TE↓ sort: got %v", spans)
	}
	if SortedSpans(spans, id, byTS) {
		t.Error("SortedSpans true on unsorted data")
	}
	if err := CheckSortedSpans(spans, id, byTS); err == nil {
		t.Error("CheckSortedSpans nil on unsorted data")
	}
}

func TestOrderMirror(t *testing.T) {
	o := Order{TSAsc, TEAsc}
	m := o.Mirror()
	if m[0] != TEDesc || m[1] != TSDesc {
		t.Errorf("Mirror(%v) = %v", o, m)
	}
	if mm := m.Mirror(); mm[0] != o[0] || mm[1] != o[1] {
		t.Error("Mirror not an involution")
	}
}

// Property: sorting mirrored spans by the mirrored order equals mirroring
// the spans sorted by the original order (the Table 1 symmetry at the level
// of sequences).
func TestMirrorOrderProperty(t *testing.T) {
	id := func(iv interval.Interval) interval.Interval { return iv }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		spans := make([]interval.Interval, n)
		for i := range spans {
			s := interval.Time(rng.Intn(50))
			spans[i] = interval.New(s, s+interval.Time(1+rng.Intn(20)))
		}
		o := Order{TSAsc, TEAsc}
		mirrored := make([]interval.Interval, n)
		for i, iv := range spans {
			mirrored[i] = iv.Mirror()
		}
		SortSpans(spans, id, o)
		SortSpans(mirrored, id, o.Mirror())
		for i := range spans {
			if spans[i].Mirror() != mirrored[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelationSortAndSortBy(t *testing.T) {
	r := New("F", facultySchema(t))
	r.MustInsert(facultyRow("C", "Full", 9, 12))
	r.MustInsert(facultyRow("A", "Assistant", 3, 6))
	r.MustInsert(facultyRow("B", "Associate", 3, 5))

	r.Sort(Order{TSAsc, TEAsc})
	if r.Rows[0][0].AsString() != "B" || r.Rows[1][0].AsString() != "A" {
		t.Errorf("temporal sort wrong: %v", r)
	}
	if !SortedSpans(r.Rows, func(row Row) interval.Interval { return row.Span(r.Schema) }, Order{TSAsc}) {
		t.Error("rows not in ValidFrom order after Sort")
	}
}

func TestCloneAndDedup(t *testing.T) {
	r := New("F", facultySchema(t))
	row := facultyRow("A", "Assistant", 1, 2)
	r.MustInsert(row)
	r.MustInsert(row.Clone())
	r.MustInsert(facultyRow("B", "Full", 1, 2))

	c := r.Clone()
	c.Rows[0][0] = value.String_("MUTATED")
	if r.Rows[0][0].AsString() != "A" {
		t.Error("Clone shares row storage")
	}
}

func TestRowHelpers(t *testing.T) {
	a := facultyRow("A", "Assistant", 1, 2)
	b := facultyRow("A", "Assistant", 1, 2)
	if !a.Equal(b) {
		t.Error("equal rows not Equal")
	}
	if a.Equal(b[:3]) {
		t.Error("different arity rows Equal")
	}
	if a.Key() != b.Key() {
		t.Error("equal rows have different keys")
	}
	if !strings.Contains(a.String(), "Assistant") {
		t.Errorf("Row.String = %q", a.String())
	}
	s := facultySchema(t)
	if a.Span(s) != interval.New(1, 2) {
		t.Errorf("Span = %v", a.Span(s))
	}
}

func TestSpanPanicsOnSnapshot(t *testing.T) {
	snap := MustSchema([]Column{{Name: "A", Kind: value.KindInt}}, -1, -1)
	defer func() {
		if recover() == nil {
			t.Error("Span on snapshot schema must panic")
		}
	}()
	Row{value.Int(1)}.Span(snap)
}

func TestRelationString(t *testing.T) {
	r := New("F", facultySchema(t))
	for i := 0; i < 30; i++ {
		r.MustInsert(facultyRow("A", "Assistant", interval.Time(i), interval.Time(i+1)))
	}
	s := r.String()
	if !strings.Contains(s, "30 rows") || !strings.Contains(s, "more") {
		t.Errorf("String = %q", s)
	}
}

func TestTemporalKeyStrings(t *testing.T) {
	if TSAsc.String() != "ValidFrom ↑" || TEDesc.String() != "ValidTo ↓" {
		t.Error("key rendering wrong")
	}
	o := Order{TSAsc, TEAsc}
	if o.String() != "ValidFrom ↑, ValidTo ↑" {
		t.Errorf("order rendering = %q", o.String())
	}
}

// collidingPair renders alike under a separator-joined "kind:value" key
// but differs in every cell.
func collidingPair() (Row, Row) {
	return Row{value.String_("a\x1f1:b"), value.String_("c")},
		Row{value.String_("a"), value.String_("b\x1f1:c")}
}

// Int and Time share one order and are Equal at equal payloads, so their
// keys agree; a string never keys like a number.
func TestRowKeyMatchesEqual(t *testing.T) {
	i5, t5 := Row{value.Int(5)}, Row{value.TimeVal(5)}
	if !i5.Equal(t5) || i5.Key() != t5.Key() {
		t.Errorf("Int 5 / Time 5: Equal %v, keys %q %q", i5.Equal(t5), i5.Key(), t5.Key())
	}
	if s5 := (Row{value.String_("5")}); s5.Key() == i5.Key() {
		t.Error("string \"5\" keys like Int 5")
	}
	a, b := collidingPair()
	if a.Key() == b.Key() {
		t.Errorf("distinct rows %s and %s share a key", a, b)
	}
	// The column list selects and orders the encoded cells.
	if got, want := AppendKey(nil, a, []int{1, 0}), AppendKey(nil, Row{a[1], a[0]}, nil); !bytes.Equal(got, want) {
		t.Errorf("AppendKey over cols {1,0} = %q, want %q", got, want)
	}
}

func TestAppendKeyDoesNotAllocate(t *testing.T) {
	row := facultyRow("Ada", "Assistant", 1, interval.Forever)
	buf := AppendKey(nil, row, nil)
	if n := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], row, nil) }); n != 0 {
		t.Errorf("AppendKey into a sized buffer allocates %.0f times, want 0", n)
	}
}

// FuzzRowKey decodes two rows of random arity and cell kinds and holds
// key equality to Row.Equal. Cells are small integers, chronons and short
// strings — raw bytes, or drawn from the codec's own tag and length bytes —
// so equal rows and would-be collisions are common.
func FuzzRowKey(f *testing.F) {
	f.Add([]byte("\x02\x02\x0da\x1f1:b\x02\x09c\x02\x02\x09a\x02\x0db\x1f1:c"))
	f.Add([]byte{1, 0, 5, 1, 1, 5})
	f.Add([]byte{1, 2, 9, '5', 1, 0, '5'})
	f.Add([]byte{2, 2, 2, 1, 0, 2, 1, 1, 2, 2, 1, 1, 2, 2, 0, 1})
	const alphabet = "si\x00\x01\x08\xff"
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		row := func() Row {
			r := make(Row, next()%4)
			for i := range r {
				switch next() % 3 {
				case 0:
					r[i] = value.Int(int64(int8(next())))
				case 1:
					r[i] = value.TimeVal(interval.Time(int8(next())))
				default:
					l := next()
					s := make([]byte, l%8)
					for j := range s {
						if s[j] = next(); l&8 == 0 {
							s[j] = alphabet[s[j]%byte(len(alphabet))]
						}
					}
					r[i] = value.String_(string(s))
				}
			}
			return r
		}
		a, b := row(), row()
		if eq := bytes.Equal(AppendKey(nil, a, nil), AppendKey(nil, b, nil)); eq != a.Equal(b) {
			t.Fatalf("rows %q and %q: keys equal %v, Equal %v", a, b, eq, a.Equal(b))
		}
	})
}
