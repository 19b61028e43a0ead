// Package wire is the JSON row codec of the /v1/ protocol, shared by the
// server and the driver. The writer appends result rows straight to bytes,
// with no [][]any and no reflection, and writes exactly the bytes
// encoding/json writes for the same rows boxed as [][]any. The scanner
// reads a whole document once and moves row cells into typed sinks,
// agreeing with encoding/json (UseNumber, then a per-cell conversion) on
// every document it accepts or rejects.
package wire

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"tdb/internal/value"
)

const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped with its
// default HTML escaping: printable bytes other than the quote, the
// backslash, '<', '>' and '&'.
var htmlSafe = func() (set [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		set[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return set
}()

// AppendString appends s as a JSON string, escaped as encoding/json
// escapes it: the short escapes \" \\ \b \f \n \r \t, \u00XX for the other
// control bytes and for '<', '>' and '&', \u2028 and \u2029 for the
// two line separators, and \ufffd for each byte of invalid UTF-8.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendRow appends one row as a JSON array: string cells as strings,
// time and int cells as integer literals, so chronons up to
// interval.Forever stay exact.
func appendRow(dst []byte, row []value.Value) []byte {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		if v.Kind() == value.KindString {
			dst = AppendString(dst, v.AsString())
		} else {
			dst = strconv.AppendInt(dst, v.AsInt(), 10)
		}
	}
	return append(dst, ']')
}

// sampleRows is how many rows, spread over the array, AppendRows encodes
// to size dst before it writes the array.
const sampleRows = 32

// AppendRows appends rows as a JSON array of row arrays; no rows is [].
// dst grows once for the whole array, by the average length of a sample
// of the rows, rather than doubling as it fills.
func AppendRows[R ~[]value.Value](dst []byte, rows []R) []byte {
	if n := len(rows); n > sampleRows {
		mark := len(dst)
		for i := 0; i < sampleRows; i++ {
			dst = appendRow(dst, rows[i*n/sampleRows])
		}
		per := (len(dst)-mark)/sampleRows + 1
		dst = slices.Grow(dst[:mark], (per+per/8)*n+2)
	}
	dst = append(dst, '[')
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, r)
	}
	return append(dst, ']')
}
