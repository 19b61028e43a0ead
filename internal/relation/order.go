package relation

import (
	"fmt"
	"strings"

	"tdb/internal/interval"
)

// TemporalKey designates one of the two temporal attributes as a sort key,
// with a direction. The paper's Tables 1–3 enumerate exactly these keys:
// ValidFrom or ValidTo, each ascending (↑) or descending (↓).
type TemporalKey struct {
	Endpoint interval.Endpoint // TS (ValidFrom) or TE (ValidTo)
	Desc     bool
}

// String renders the key in the notation of the paper's tables, e.g.
// "ValidFrom ↑".
func (k TemporalKey) String() string {
	name := "ValidFrom"
	if k.Endpoint == interval.TE {
		name = "ValidTo"
	}
	arrow := "↑"
	if k.Desc {
		arrow = "↓"
	}
	return name + " " + arrow
}

// Convenience keys covering the four rows of the paper's tables.
var (
	TSAsc  = TemporalKey{Endpoint: interval.TS}
	TSDesc = TemporalKey{Endpoint: interval.TS, Desc: true}
	TEAsc  = TemporalKey{Endpoint: interval.TE}
	TEDesc = TemporalKey{Endpoint: interval.TE, Desc: true}
)

// Order is a composite sort order: a primary key followed by optional
// tie-breaking keys. The self-semijoin algorithm of Figure 7, for example,
// requires primary ValidFrom ↑ with secondary ValidTo ↑.
type Order []TemporalKey

// String renders the order as "ValidFrom ↑, ValidTo ↑".
func (o Order) String() string {
	parts := make([]string, len(o))
	for i, k := range o {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}

// Mirror returns the order that mirrored data must have so that an
// algorithm expecting o can run on it: ascending ValidFrom becomes
// descending ValidTo and vice versa (the Table 1 symmetry).
func (o Order) Mirror() Order {
	m := make(Order, len(o))
	for i, k := range o {
		m[i] = TemporalKey{Endpoint: otherEndpoint(k.Endpoint), Desc: !k.Desc}
	}
	return m
}

func otherEndpoint(e interval.Endpoint) interval.Endpoint {
	if e == interval.TS {
		return interval.TE
	}
	return interval.TS
}

// Compare orders two lifespans under the composite order, returning
// negative, zero or positive. Rows comparing equal are interchangeable for
// the stream algorithms.
func (o Order) Compare(a, b interval.Interval) int {
	for _, k := range o {
		av, bv := endpoint(a, k.Endpoint), endpoint(b, k.Endpoint)
		if av != bv {
			c := 1
			if av < bv {
				c = -1
			}
			if k.Desc {
				c = -c
			}
			return c
		}
	}
	return 0
}

func endpoint(iv interval.Interval, e interval.Endpoint) interval.Time {
	if e == interval.TS {
		return iv.Start
	}
	return iv.End
}

// SortedSpans reports whether the elements are already in the order.
func SortedSpans[T any](xs []T, span func(T) interval.Interval, o Order) bool {
	for i := 1; i < len(xs); i++ {
		if o.Compare(span(xs[i-1]), span(xs[i])) > 0 {
			return false
		}
	}
	return true
}

// CheckSortedSpans returns an error naming the first out-of-order position.
func CheckSortedSpans[T any](xs []T, span func(T) interval.Interval, o Order) error {
	for i := 1; i < len(xs); i++ {
		if o.Compare(span(xs[i-1]), span(xs[i])) > 0 {
			return fmt.Errorf("relation: elements %d and %d violate order %v: %v then %v",
				i-1, i, o, span(xs[i-1]), span(xs[i]))
		}
	}
	return nil
}
