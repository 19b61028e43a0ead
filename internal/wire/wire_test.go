package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/value"
)

// escapeClasses are strings covering every escape encoding/json applies,
// plus the bytes it leaves alone.
var escapeClasses = []string{
	"",
	"plain ASCII, spaces and digits 0123",
	`quote " backslash \ slash /`,
	"\b\f\n\r\t",
	"\x00\x01\x1f\x7f",
	"<script>&amp;</script>",
	"line\xe2\x80\xa8para\xe2\x80\xa9end",
	"caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80",
	"bad \xff byte, cut \xe6\x97 rune, lone \xed\xa0\x80 surrogate",
	"\xc0\xaf overlong",
}

// FuzzWireString holds AppendString to json.Marshal of the same string.
func FuzzWireString(f *testing.F) {
	for _, s := range escapeClasses {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}

// FuzzWireRows holds AppendRows to json.Marshal of the rows boxed as
// [][]any, the shape the server encoded before, and scans the bytes back
// to the same cells.
func FuzzWireRows(f *testing.F) {
	f.Add("Full", int64(0), int64(math.MaxInt64-1), uint8(3))
	f.Add("", int64(math.MinInt64), int64(-1), uint8(0))
	for _, s := range escapeClasses {
		f.Add(s, int64(42), int64(1)<<53+1, uint8(2))
	}
	f.Fuzz(func(t *testing.T, s string, a, b int64, n uint8) {
		rows := make([][]value.Value, int(n)%5)
		old := make([][]any, len(rows))
		for i := range rows {
			str := s + strings.Repeat("x", i)
			rows[i] = []value.Value{value.String_(str), value.Int(a), value.TimeVal(interval.Time(b))}
			old[i] = []any{str, a, b}
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendRows(nil, rows)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendRows = %s, json.Marshal = %s", got, want)
		}
		cols := make(Columns, 3)
		m, err := NewScanner(string(got)).Rows([]bool{true, false, false}, cols)
		if err != nil || m != len(rows) {
			t.Fatalf("scan back %s: %d rows, %v", got, m, err)
		}
		var unq string
		if err := json.Unmarshal(AppendString(nil, s), &unq); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if cols[0].Strings[i] != unq+strings.Repeat("x", i) || cols[1].Ints[i] != a || cols[2].Ints[i] != b {
				t.Fatalf("row %d scanned as %q %d %d", i, cols[0].Strings[i], cols[1].Ints[i], cols[2].Ints[i])
			}
		}
	})
}

// The scanner accepts exactly the nesting encoding/json accepts.
func TestScannerDepthMatchesEncodingJSON(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		doc := `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
		var v map[string]any
		want := json.Unmarshal([]byte(doc), &v)
		s := NewScanner(doc)
		got := s.Object([]string{"y"}, nil)
		if (got == nil) != (want == nil) {
			t.Errorf("depth %d: scanner %v, encoding/json %v", depth, got, want)
		}
	}
}

// Strings unquote as encoding/json unquotes them, escapes and invalid
// UTF-8 included, and malformed strings fail in both.
func TestScannerStringsMatchEncodingJSON(t *testing.T) {
	docs := []string{
		`"abc"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é 😀"`,
		`"\ud800"`, `"\ud800A"`, `"\udc00\ud800"`, `"\ud83d\ude0"`,
		"\"bad \xff byte\"", "\"\xed\xa0\x80\"", `"\'"`, `"\x"`, "\"a\x01\"", `"abc`, `"\`, `"\u12`,
	}
	for _, s := range escapeClasses {
		docs = append(docs, string(AppendString(nil, s)))
	}
	for _, doc := range docs {
		var want string
		werr := json.Unmarshal([]byte(doc), &want)
		sc := NewScanner(doc)
		var got string
		var gerr error
		if sc.peek() == '"' {
			got, gerr = sc.str()
		} else {
			gerr = sc.skip()
		}
		if gerr == nil {
			gerr = sc.End()
		}
		if (gerr == nil) != (werr == nil) || got != want {
			t.Errorf("%q: scanner %q, %v; encoding/json %q, %v", doc, got, gerr, want, werr)
		}
	}
}

// Rows reports a syntax fault at once and a misfit only after checking the
// rest, and null rows and null cells decode as encoding/json's [][]any
// would have them.
func TestScannerRowsErrors(t *testing.T) {
	str := []bool{true, false}
	const ok, misfit, syntax = 0, 1, 2
	for _, c := range []struct {
		doc  string
		want int
	}{
		{`[["a",1],["b",-0]]`, ok},
		{`null`, ok},
		{` [ ] `, ok},
		{`[["a",-9223372036854775808]]`, ok},
		{`[["a",1.5]]`, misfit},
		{`[["a",1e3]]`, misfit},
		{`[["a",9223372036854775808]]`, misfit},
		{`[[1,1]]`, misfit},
		{`[["a","1"]]`, misfit},
		{`[["a",null]]`, misfit},
		{`[["a",{"k":[1]}]]`, misfit},
		{`[["a",1,2]]`, misfit},
		{`[null]`, misfit},
		{`[["a",1.5],"x"]`, syntax},
		{`[["a",1.5],[1,]]`, syntax},
		{`[["a",1]`, syntax},
		{`["a"]`, syntax},
		{`{}`, syntax},
		{`[["a",01]]`, syntax},
		{`[["a",1]]]`, ok}, // Rows stops at its value; End finds the rest
	} {
		cols := make(Columns, 2)
		_, err := NewScanner(c.doc).Rows(str, cols)
		var ce *CellError
		var se *SyntaxError
		got := ok
		switch {
		case errors.As(err, &ce):
			got = misfit
		case errors.As(err, &se):
			got = syntax
		case err != nil:
			t.Errorf("%s: untyped error %v", c.doc, err)
		}
		if got != c.want {
			t.Errorf("%s: %v, want outcome %d", c.doc, err, c.want)
		}
	}
	cols := make(Columns, 2)
	if n, err := NewScanner(`[["a",9223372036854775807],["é",-9223372036854775808]]`).Rows(str, cols); err != nil || n != 2 ||
		!reflect.DeepEqual(cols[1].Ints, []int64{math.MaxInt64, math.MinInt64}) || cols[0].Strings[1] != "é" {
		t.Errorf("extremes: %d rows, %v, %+v", n, err, cols)
	}
}
