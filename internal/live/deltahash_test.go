package live

import (
	"math"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// hashOf folds a delta sequence into the delta hash, as record does.
func hashOf(rows ...relation.Row) uint64 {
	h := uint64(fnv1aInit)
	for _, row := range rows {
		h = foldDelta(h, row)
	}
	return h
}

// hashStrings are shorter than, equal to and longer than one 4-byte step
// and one 8-byte word, the empty string and embedded zero bytes included.
var hashStrings = []string{"", "a", "\x00", "a\x00", "abc", "abcd", "abcdefg", "abcdefgh",
	"abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq"}

// Two delta sequences that differ in exactly one cell hash differently:
// every cell of a two-row sequence is swapped for every other value, of its
// kind or another one (an Int and a Time with one payload are different
// cells).
func TestDeltaHashSeparatesOneCell(t *testing.T) {
	base := []relation.Row{
		{value.String_("ada"), value.Int(7), value.TimeVal(1), value.TimeVal(9)},
		{value.String_("abcdefghi"), value.String_(""), value.TimeVal(2), value.TimeVal(interval.Forever)},
	}
	var variants []value.Value
	for _, s := range hashStrings {
		variants = append(variants, value.String_(s))
	}
	for _, n := range []int64{0, 1, 7, 9, -1, 1 << 32, math.MaxInt64, math.MinInt64} {
		variants = append(variants, value.Int(n), value.TimeVal(interval.Time(n)))
	}
	want := hashOf(base...)
	for r := range base {
		for c, cell := range base[r] {
			for _, v := range variants {
				if v.Kind() == cell.Kind() && v.Equal(cell) {
					continue
				}
				seq := []relation.Row{append(relation.Row(nil), base[0]...), append(relation.Row(nil), base[1]...)}
				seq[r][c] = v
				if hashOf(seq...) == want {
					t.Errorf("row %d cell %d: %s (%s) in place of %s (%s) leaves the hash %x",
						r, c, v, v.Kind(), cell, cell.Kind(), want)
				}
			}
		}
	}
}

// The hash separates the sequences a 64-bit FNV-1a step would not (input
// words that differ only in their top bits move only the state's top bit,
// so two such differences cancel), and strings that differ only in
// trailing zero bytes, which the zero-padded last word alone would not.
func TestDeltaHashSeparatesPairs(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b []relation.Row
	}{
		{"padding after a short tail",
			[]relation.Row{{value.String_("a")}},
			[]relation.Row{{value.String_("a\x00")}}},
		{"padding after a whole word",
			[]relation.Row{{value.String_("abcd")}},
			[]relation.Row{{value.String_("abcd\x00\x00\x00\x00")}}},
		{"the empty string",
			[]relation.Row{{value.String_("")}},
			[]relation.Row{{value.String_("\x00")}}},
		{"one string, bytes 7 and 15",
			[]relation.Row{{value.String_("abcdefghijklmnop")}},
			[]relation.Row{{value.String_("abcdefg\xe8ijklmno\xf0")}}},
		{"two ints",
			[]relation.Row{{value.Int(5), value.Int(6)}},
			[]relation.Row{{value.Int(5 ^ math.MinInt64), value.Int(6 ^ math.MinInt64)}}},
		{"two rows",
			[]relation.Row{{value.TimeVal(5)}, {value.TimeVal(6)}},
			[]relation.Row{{value.TimeVal(5 ^ math.MinInt64)}, {value.TimeVal(6 ^ math.MinInt64)}}},
	} {
		if hashOf(c.a...) == hashOf(c.b...) {
			t.Errorf("%s: both sequences hash to %x", c.name, hashOf(c.a...))
		}
	}
}

// Where a string's bytes split between two adjacent cells, or two adjacent
// one-cell rows, changes the hash: "ab","c" is not "a","bc". Every split of
// every test string is a different sequence.
func TestDeltaHashSeparatesSplits(t *testing.T) {
	if hashOf(relation.Row{value.String_("ab"), value.String_("c")}) ==
		hashOf(relation.Row{value.String_("a"), value.String_("bc")}) {
		t.Fatal(`"ab","c" and "a","bc" hash alike`)
	}
	for _, s := range append(hashStrings, "a\x00\x00\x00b\x00\x00\x00\x00c") {
		cells := map[uint64]int{}
		rows := map[uint64]int{}
		for i := 0; i <= len(s); i++ {
			l, r := value.String_(s[:i]), value.String_(s[i:])
			h := hashOf(relation.Row{l, r})
			if j, ok := cells[h]; ok {
				t.Errorf("%q split at %d and at %d across two cells: both hash to %x", s, j, i, h)
			}
			cells[h] = i
			h = hashOf(relation.Row{l}, relation.Row{r})
			if j, ok := rows[h]; ok {
				t.Errorf("%q split at %d and at %d across two rows: both hash to %x", s, j, i, h)
			}
			rows[h] = i
		}
	}
}
