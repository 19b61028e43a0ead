// Package value implements the typed atomic values that populate the cells
// of temporal tuples: 64-bit integers, strings, and chronons (time points).
// The engine, the algebra and the Quel-like language all operate on these
// values; comparison follows the total order of each type so that values
// can serve as sort keys and as operands of the inequality predicates that
// dominate temporal queries.
package value

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"tdb/internal/interval"
)

// Kind enumerates the value types.
type Kind uint8

// The supported kinds. KindTime is distinct from KindInt so that schema
// validation can insist that ValidFrom/ValidTo columns carry chronons.
const (
	KindInt Kind = iota
	KindString
	KindTime
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a typed atomic value in 16 bytes. The zero Value is the integer
// 0.
//
// The kind is carried by p alone: nil is an Int, &timeTag a Time, and any
// other pointer the first byte of a string of length n (&emptyTag for the
// empty string, whose data pointer is otherwise unspecified). n holds the
// int payload, the chronon, or the string length. A string Value keeps its
// bytes alive exactly as the string would: p is an ordinary Go pointer, and
// a pointer into the middle of a larger allocation pins all of it.
//
// Value is deliberately not comparable. Two equal strings from different
// buffers have different p, so == and map keys would compare identity, not
// contents; the zero-size func array turns every such use into a compile
// error, and Equal is the comparison. (reflect.DeepEqual compares p as a
// pointer too, and is equally wrong for strings.)
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n int64
}

// timeTag and emptyTag are kind tags: their addresses are never the data of
// a non-empty string, so they cannot be confused with one.
var timeTag, emptyTag byte

// Int returns an integer value.
func Int(v int64) Value { return Value{n: v} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&emptyTag)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: int64(len(v))}
}

// TimeVal returns a chronon value.
func TimeVal(t interval.Time) Value { return Value{p: unsafe.Pointer(&timeTag), n: int64(t)} }

// numeric reports whether v is an Int or a Time, which share one order.
func (v Value) numeric() bool { return v.p == nil || v.p == unsafe.Pointer(&timeTag) }

// str is the string payload of a string value.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// Kind reports the type of the value.
func (v Value) Kind() Kind {
	switch v.p {
	case nil:
		return KindInt
	case unsafe.Pointer(&timeTag):
		return KindTime
	}
	return KindString
}

// AsInt returns the integer payload; it panics if the value is a string.
func (v Value) AsInt() int64 {
	if !v.numeric() {
		// lint:allow panic — documented accessor contract, like a failed type assertion
		panic("value: AsInt on string value " + strconv.Quote(v.str()))
	}
	return v.n
}

// AsString returns the string payload; it panics on non-string values.
func (v Value) AsString() string {
	if v.numeric() {
		// lint:allow panic — documented accessor contract, like a failed type assertion
		panic("value: AsString on " + v.Kind().String() + " value")
	}
	return v.str()
}

// AsTime returns the chronon payload; it panics on string values. Integers
// are accepted and reinterpreted, mirroring the paper's treatment of time
// points as natural numbers.
func (v Value) AsTime() interval.Time {
	if !v.numeric() {
		// lint:allow panic — documented accessor contract, like a failed type assertion
		panic("value: AsTime on string value " + strconv.Quote(v.str()))
	}
	return interval.Time(v.n)
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind() {
	case KindString:
		return v.str()
	case KindTime:
		if interval.Time(v.n) == interval.Forever {
			return "∞"
		}
	}
	return strconv.FormatInt(v.n, 10)
}

// Comparable reports whether two values may be compared: identical kinds,
// or int/time which share the integer order.
func (v Value) Comparable(o Value) bool { return v.numeric() == o.numeric() }

// Compare returns -1, 0 or +1 following the total order of the common type.
// It panics when the values are not comparable; the analyzer rejects such
// queries before execution.
func (v Value) Compare(o Value) int {
	vn := v.numeric()
	if vn != o.numeric() {
		// lint:allow panic — unreachable at runtime: the semantic analyzer rejects mixed-kind comparisons before execution
		panic(fmt.Sprintf("value: comparing %s with %s", v.Kind(), o.Kind()))
	}
	if vn {
		return cmp.Compare(v.n, o.n)
	}
	return strings.Compare(v.str(), o.str())
}

// Equal reports v == o under Compare.
func (v Value) Equal(o Value) bool {
	vn := v.numeric()
	if vn != o.numeric() {
		return false
	}
	if vn {
		return v.n == o.n
	}
	return v.str() == o.str()
}

// Less reports v < o under Compare.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Parse interprets s as a value of the given kind. Time accepts either a
// decimal chronon or the symbol "forever"/"∞".
func Parse(kind Kind, s string) (Value, error) {
	switch kind {
	case KindString:
		return String_(s), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as int: %w", s, err)
		}
		return Int(i), nil
	case KindTime:
		if s == "forever" || s == "∞" {
			return TimeVal(interval.Forever), nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as time: %w", s, err)
		}
		return TimeVal(interval.Time(i)), nil
	}
	return Value{}, fmt.Errorf("value: unknown kind %v", kind)
}
