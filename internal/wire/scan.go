package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document may open at most
// this many arrays and objects around any value.
const maxDepth = 10000

// SyntaxError reports a document encoding/json would reject before
// looking at its cells: invalid or truncated JSON, or a value whose JSON
// type does not fit its place (a row that is not an array).
type SyntaxError struct {
	Offset int // byte offset of the fault
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("wire: %s at offset %d", e.Msg, e.Offset)
}

// CellError reports well-formed rows that do not fit their columns: a
// row of the wrong arity, a cell whose JSON type differs from its
// column's kind, or a number that is not an int64 literal.
type CellError struct {
	Row, Col int
	Msg      string
}

func (e *CellError) Error() string {
	return fmt.Sprintf("wire: row %d, cell %d: %s", e.Row, e.Col, e.Msg)
}

// Cells receives the cells Rows scans, in row-major order: one call per
// cell, Str for a string column and Int for any other.
type Cells interface {
	Str(col int, v string)
	Int(col int, v int64)
}

// Column is one column's scanned cells: Strings for a string column, Ints
// for any other kind.
type Column struct {
	Strings []string
	Ints    []int64
}

// Columns collects scanned cells column by column.
type Columns []Column

// Str implements Cells.
func (c Columns) Str(col int, v string) { c[col].Strings = append(c[col].Strings, v) }

// Int implements Cells.
func (c Columns) Int(col int, v int64) { c[col].Ints = append(c[col].Ints, v) }

// Scanner reads one JSON document held in a string. String cells without
// escapes are substrings of the document, so they share its one copy and
// keep all of it alive while any of them is referenced.
type Scanner struct {
	src   string
	pos   int
	depth int
}

// NewScanner returns a scanner at the start of src.
func NewScanner(src string) *Scanner { return &Scanner{src: src} }

// Offset is the scanner's byte offset in its document.
func (s *Scanner) Offset() int { return s.pos }

// End requires that nothing but white space follows.
func (s *Scanner) End() error {
	s.space()
	if s.pos < len(s.src) {
		return s.syntax("data after the top-level value")
	}
	return nil
}

// Object walks a JSON object. For each member whose key names one of
// fields, matched as encoding/json matches struct fields (exactly, else
// under Unicode case folding), member is called with the field's index
// and must consume the value; other members are skipped. A null stands
// for an empty object, as encoding/json decodes it into a struct.
func (s *Scanner) Object(fields []string, member func(field int) error) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.mistyped("an object")
	}
	if err := s.open(); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.close()
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.syntax("want an object key")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.syntax("want ':' after an object key")
		}
		s.pos++
		if f := match(fields, key); f >= 0 {
			err = member(f)
		} else {
			err = s.skip()
		}
		if err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.close()
			return nil
		default:
			return s.syntax("want ',' or '}' after an object member")
		}
	}
}

// match finds key among fields: an exact match first, then one equal
// under case folding, as encoding/json picks a struct field.
func match(fields []string, key string) int {
	for i, f := range fields {
		if f == key {
			return i
		}
	}
	for i, f := range fields {
		if strings.EqualFold(f, key) {
			return i
		}
	}
	return -1
}

// Decode unmarshals the next value into dst with encoding/json, for the
// small envelope fields around the rows.
func (s *Scanner) Decode(dst any) error {
	s.space()
	start := s.pos
	if err := s.skip(); err != nil {
		return err
	}
	return json.Unmarshal([]byte(s.src[start:s.pos]), dst)
}

// Rows scans a JSON array of rows into cells. str[j] says whether column
// j holds strings; every other column holds int64 literals. A null stands
// for no rows, and a null row for a row of no cells, as encoding/json
// decodes them into [][]any. A malformed document is a *SyntaxError,
// reported at once. Rows that do not fit the columns are a *CellError,
// reported only after the whole array was checked for syntax; cells stops
// receiving cells at the first misfit.
func (s *Scanner) Rows(str []bool, cells Cells) (int, error) {
	switch s.peek() {
	case 'n':
		return 0, s.literal("null")
	case '[':
	default:
		return 0, s.mistyped("an array of rows")
	}
	if err := s.open(); err != nil {
		return 0, err
	}
	if s.peek() == ']' {
		s.close()
		return 0, nil
	}
	var misfit error
	for n := 0; ; n++ {
		arity := 0
		switch s.peek() {
		case 'n':
			if err := s.literal("null"); err != nil {
				return n, err
			}
		case '[':
			if err := s.open(); err != nil {
				return n, err
			}
			if s.peek() != ']' {
				for ; ; arity++ {
					var err error
					if misfit == nil && arity < len(str) {
						misfit, err = s.cell(n, arity, str[arity], cells)
					} else {
						err = s.skip()
					}
					if err != nil {
						return n, err
					}
					if s.peek() != ',' {
						break
					}
					s.pos++
				}
				arity++
				if s.peek() != ']' {
					return n, s.syntax("want ',' or ']' after a cell")
				}
			}
			s.close()
		default:
			return n, s.mistyped("a row array")
		}
		if misfit == nil && arity != len(str) {
			misfit = &CellError{Row: n, Col: min(arity, len(str)), Msg: fmt.Sprintf("%d cells for %d columns", arity, len(str))}
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.close()
			return n + 1, misfit
		default:
			return n + 1, s.syntax("want ',' or ']' after a row")
		}
	}
}

// cell scans one cell of a string (str) or integer column into cells. A
// cell of the other JSON type is skipped and returned as a misfit.
func (s *Scanner) cell(row, col int, str bool, cells Cells) (misfit, err error) {
	c := s.peek()
	switch {
	case str && c == '"':
		v, err := s.str()
		if err != nil {
			return nil, err
		}
		cells.Str(col, v)
		return nil, nil
	case !str && (c == '-' || '0' <= c && c <= '9'):
		lit, integer, err := s.number()
		if err != nil {
			return nil, err
		}
		n, ok := parseInt(lit, integer)
		if !ok {
			return &CellError{Row: row, Col: col, Msg: fmt.Sprintf("%s is not an int64", lit)}, nil
		}
		cells.Int(col, n)
		return nil, nil
	}
	start := s.pos
	if err := s.skip(); err != nil {
		return nil, err
	}
	want := "a string"
	if !str {
		want = "an integer"
	}
	return &CellError{Row: row, Col: col, Msg: fmt.Sprintf("%.40s where the column wants %s", s.src[start:s.pos], want)}, nil
}

// parseInt converts an integer literal as strconv.ParseInt does, which is
// how json.Number.Int64 converts it.
func parseInt(lit string, integer bool) (int64, bool) {
	if !integer {
		return 0, false
	}
	digits := lit
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		n, err := strconv.ParseInt(lit, 10, 64)
		return n, err == nil
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		n = n*10 + int64(digits[i]-'0')
	}
	if lit[0] == '-' {
		n = -n
	}
	return n, true
}

// skip checks and passes over the next value.
func (s *Scanner) skip() error {
	c := s.peek()
	switch {
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '[':
		if err := s.open(); err != nil {
			return err
		}
		if s.peek() == ']' {
			s.close()
			return nil
		}
		for {
			if err := s.skip(); err != nil {
				return err
			}
			switch s.peek() {
			case ',':
				s.pos++
			case ']':
				s.close()
				return nil
			default:
				return s.syntax("want ',' or ']' after an array element")
			}
		}
	case c == '{':
		return s.Object(nil, nil)
	}
	return s.syntax("want a value")
}

// space passes over JSON white space.
func (s *Scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte after white space, or 0 at the end.
func (s *Scanner) peek() byte {
	s.space()
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *Scanner) open() error {
	if s.depth == maxDepth {
		return s.syntax("nesting deeper than 10000")
	}
	s.depth++
	s.pos++
	return nil
}

// close passes the closing bracket peek found.
func (s *Scanner) close() {
	s.depth--
	s.pos++
}

func (s *Scanner) literal(word string) error {
	if !strings.HasPrefix(s.src[s.pos:], word) {
		return s.syntax("want " + word)
	}
	s.pos += len(word)
	return nil
}

// syntax reports a fault at the scanner's position; at the end of the
// document the fault is truncation.
func (s *Scanner) syntax(msg string) error {
	if s.pos >= len(s.src) {
		msg = "unexpected end of document"
	}
	return &SyntaxError{Offset: s.pos, Msg: msg}
}

// mistyped reports a value that is not the JSON type its place wants;
// the value must still be valid JSON, so its own fault comes first.
func (s *Scanner) mistyped(want string) error {
	start := s.pos
	if err := s.skip(); err != nil {
		return err
	}
	s.pos = start
	return s.syntax("want " + want)
}

// number scans a JSON number literal and reports whether it is an
// integer literal: no fraction and no exponent.
func (s *Scanner) number() (lit string, integer bool, err error) {
	start, i := s.pos, s.pos
	src := s.src
	if src[i] == '-' {
		i++
	}
	digits := func() int {
		j := i
		for i < len(src) && '0' <= src[i] && src[i] <= '9' {
			i++
		}
		return i - j
	}
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case digits() == 0:
		s.pos = i
		return "", false, s.syntax("want a digit")
	}
	integer = true
	if i < len(src) && src[i] == '.' {
		i++
		integer = false
		if digits() == 0 {
			s.pos = i
			return "", false, s.syntax("want a digit after '.'")
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		i++
		integer = false
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if digits() == 0 {
			s.pos = i
			return "", false, s.syntax("want a digit in the exponent")
		}
	}
	s.pos = i
	return src[start:i], integer, nil
}

// str scans a JSON string at the scanner's position and returns its value
// as encoding/json unquotes it. A string of valid UTF-8 with no escapes is
// a substring of the document.
func (s *Scanner) str() (string, error) {
	start := s.pos + 1
	for i := start; i < len(s.src); {
		c := s.src[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return s.src[start:i], nil
		case c == '\\' || c < ' ':
			return s.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s.src[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unquote(start, i)
			}
			i += size
		}
	}
	s.pos = len(s.src)
	return "", s.syntax("")
}

// unquote finishes a string whose bytes from start to i needed no
// change: escapes are decoded, an unpaired surrogate escape and each byte
// of invalid UTF-8 become U+FFFD, and a raw control byte is an error.
func (s *Scanner) unquote(start, i int) (string, error) {
	src := s.src
	b := make([]byte, 0, len(src[start:i])+16)
	b = append(b, src[start:i]...)
	for i < len(src) {
		c := src[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return string(b), nil
		case c == '\\':
			if i+1 >= len(src) {
				s.pos = len(src)
				return "", s.syntax("")
			}
			switch e := src[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(src[i+2:])
				if r < 0 {
					s.pos = min(i+6, len(src))
					return "", s.syntax("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if strings.HasPrefix(src[i:], `\u`) {
						r2 = hex4(src[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.pos = i + 1
				return "", s.syntax("invalid escape")
			}
			i += 2
		case c < ' ':
			s.pos = i
			return "", s.syntax("control byte in a string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(src[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	s.pos = len(src)
	return "", s.syntax("")
}

// hex4 decodes the four hex digits that open s, or returns -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
