// Package stream implements the stream processing substrate of Section 4.1
// of the paper: a stream is an ordered sequence of data objects consumed one
// element at a time in the specified ordering, and a stream processor is a
// function from input streams to output streams that may keep a small local
// state summarizing the portion of its inputs read so far.
//
// Streams here are pull-based and generic. Next reports the next element;
// after exhaustion, Err reports any failure encountered while producing the
// stream (the bufio.Scanner discipline, keeping the per-element hot path
// free of error plumbing). Stream processors are composed by wrapping, which
// directly mirrors the paper's view of function composition as connecting a
// network of processors.
package stream

import (
	"fmt"

	"tdb/internal/interval"
)

// Stream is an ordered sequence of elements, consumed front to back.
type Stream[T any] interface {
	// Next returns the next element, or ok=false when the stream is
	// exhausted or failed. After ok=false, Err distinguishes the two.
	Next() (T, bool)
	// Err returns the first error encountered, or nil on clean exhaustion.
	Err() error
}

// slice is an in-memory stream over a slice.
type slice[T any] struct {
	xs []T
	i  int
}

// FromSlice returns a stream yielding the elements of xs in order. The
// slice is not copied; callers must not mutate it during iteration.
func FromSlice[T any](xs []T) Stream[T] { return &slice[T]{xs: xs} }

func (s *slice[T]) Next() (T, bool) {
	if s.i >= len(s.xs) {
		var zero T
		return zero, false
	}
	x := s.xs[s.i]
	s.i++
	return x, true
}

func (s *slice[T]) Err() error { return nil }

// Empty returns a stream with no elements.
func Empty[T any]() Stream[T] { return FromSlice[T](nil) }

// Collect drains the stream into a slice, returning the stream's error.
func Collect[T any](s Stream[T]) ([]T, error) { return AppendAll(nil, s) }

// AppendAll drains the stream onto dst — Collect for a caller that knows
// how many elements are coming and has sized dst for them.
func AppendAll[T any](dst []T, s Stream[T]) ([]T, error) {
	for {
		x, ok := s.Next()
		if !ok {
			return dst, s.Err()
		}
		dst = append(dst, x)
	}
}

// Func adapts a generator function to a Stream. The function returns
// ok=false on exhaustion; a non-nil error stops the stream.
type Func[T any] struct {
	F   func() (T, bool, error)
	err error
}

// Next implements Stream.
func (f *Func[T]) Next() (T, bool) {
	if f.err != nil {
		var zero T
		return zero, false
	}
	x, ok, err := f.F()
	if err != nil {
		f.err = err
		var zero T
		return zero, false
	}
	return x, ok
}

// Err implements Stream.
func (f *Func[T]) Err() error { return f.err }

// filter yields only elements satisfying the predicate.
type filter[T any] struct {
	in   Stream[T]
	pred func(T) bool
}

// Filter returns the sub-stream of elements satisfying pred, preserving
// order. A filter is itself a stream processor with empty state; note that
// filtering is order-preserving, the property Section 4.2.3 exploits when
// using a semijoin as a preprocessor for a join.
func Filter[T any](in Stream[T], pred func(T) bool) Stream[T] {
	return &filter[T]{in: in, pred: pred}
}

func (f *filter[T]) Next() (T, bool) {
	for {
		x, ok := f.in.Next()
		if !ok {
			var zero T
			return zero, false
		}
		if f.pred(x) {
			return x, true
		}
	}
}

func (f *filter[T]) Err() error { return f.in.Err() }

// checked verifies the sort order of a stream as it is consumed.
type checked[T any] struct {
	in    Stream[T]
	span  func(T) interval.Interval
	cmp   func(a, b interval.Interval) int
	prev  interval.Interval
	begun bool
	err   error
	pos   int
}

// CheckOrdered wraps a stream of temporal elements and fails it with a
// descriptive error the moment two consecutive elements violate the
// comparison function. The stream algorithms require properly sorted input
// (Section 4.1); this adapter turns a silent wrong answer into a loud error.
func CheckOrdered[T any](in Stream[T], span func(T) interval.Interval, cmp func(a, b interval.Interval) int) Stream[T] {
	return &checked[T]{in: in, span: span, cmp: cmp}
}

func (c *checked[T]) Next() (T, bool) {
	if c.err != nil {
		var zero T
		return zero, false
	}
	x, ok := c.in.Next()
	if !ok {
		return x, false
	}
	s := c.span(x)
	if c.begun && c.cmp(c.prev, s) > 0 {
		c.err = fmt.Errorf("stream: element %d out of order: %v then %v", c.pos, c.prev, s)
		var zero T
		return zero, false
	}
	c.prev, c.begun = s, true
	c.pos++
	return x, true
}

func (c *checked[T]) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.in.Err()
}

// failing is a stream that fails after yielding a prefix; tests use it to
// exercise error propagation through processor networks.
type failing[T any] struct {
	in   Stream[T]
	n    int
	fail error
	err  error
}

// FailAfter yields the first n elements of in and then fails with err.
func FailAfter[T any](in Stream[T], n int, err error) Stream[T] {
	return &failing[T]{in: in, n: n, fail: err}
}

func (f *failing[T]) Next() (T, bool) {
	if f.err != nil {
		var zero T
		return zero, false
	}
	if f.n <= 0 {
		f.err = f.fail
		var zero T
		return zero, false
	}
	f.n--
	return f.in.Next()
}

func (f *failing[T]) Err() error {
	if f.err != nil {
		return f.err
	}
	return f.in.Err()
}
