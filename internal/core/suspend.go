package core

import (
	"iter"

	"tdb/internal/stream"
)

// Runner makes the package's single-pass operators resumable: it runs an
// unchanged operator function as a coroutine (iter.Pull) whose input
// streams are append-fed Feeders that *suspend* — yield back to the
// caller — when they run dry instead of reporting exhaustion. The operator
// keeps its local workspace alive across suspensions, so feeding more
// input and polling later resumes the very same run: the paper's stream
// processors applied to unbounded application-time streams. The live
// subsystem runs each standing query as one Runner.
//
// The operator runs only inside Poll, Finish and Stop, on the caller's
// goroutine. Feeding never runs it, so emissions never pile up between
// polls, and a Runner needs no locking: like any stream, it is used by one
// goroutine at a time.
//
// Determinism: a Runner presents its operator exactly the input sequences
// it was fed, in order, however feeding and polling were interleaved;
// since the operators are deterministic functions of their input
// sequences, the emission sequence of an incremental run is at every
// moment a byte-identical prefix of the one batch execution over the final
// inputs — the property the live delta protocol relies on.
type Runner[T any] struct {
	rc      runnerCore
	pending []T   // emissions not yet returned by Poll
	total   int64 // emissions ever made

	// next resumes the operator until it suspends or ends; stop abandons
	// it. err is the operator's result once it has ended.
	next func() (struct{}, bool)
	stop func()
	err  error
}

// runnerCore is the state a Runner shares with its feeders. It is
// type-free so feeders of any element type can attach to a runner of any
// output type.
type runnerCore struct {
	closers []func()
	// yield suspends the operator back into Poll; it returns false once
	// Stop has abandoned the run.
	yield   func(struct{}) bool
	stopped bool
	done    bool
}

// NewRunner returns a Runner with no inputs attached.
func NewRunner[T any]() *Runner[T] { return &Runner[T]{} }

// Feeder is a suspendable input stream attached to a Runner. Next
// suspends the operator while the buffer is empty until more elements are
// fed or the feeder is closed; only after Close does it report exhaustion.
type Feeder[I any] struct {
	rc     *runnerCore
	buf    []I
	pos    int
	closed bool
}

// Attach returns a new suspendable input of element type I attached to the
// runner. All feeders must be attached before Start.
func Attach[I, T any](r *Runner[T]) *Feeder[I] {
	f := &Feeder[I]{rc: &r.rc}
	r.rc.closers = append(r.rc.closers, f.Close)
	return f
}

// Next implements stream.Stream. It suspends the calling operator while
// the feeder is dry and open; once the run is stopped it reports
// exhaustion.
func (f *Feeder[I]) Next() (I, bool) {
	rc := f.rc
	for f.pos >= len(f.buf) && !f.closed && !rc.stopped {
		if !rc.yield(struct{}{}) {
			rc.stopped = true
		}
	}
	if f.pos < len(f.buf) && !rc.stopped {
		x := f.buf[f.pos]
		f.pos++
		// Compact the consumed prefix so a long-lived feeder's memory
		// tracks its unconsumed suffix, not its full history.
		if f.pos >= 1024 && f.pos*2 >= len(f.buf) {
			f.buf = append([]I(nil), f.buf[f.pos:]...)
			f.pos = 0
		}
		return x, true
	}
	var zero I
	return zero, false
}

// Err implements stream.Stream; feeding never fails.
func (f *Feeder[I]) Err() error { return nil }

// Feed appends elements to the feeder; the operator consumes them at the
// next Poll. Elements fed after Close, after Stop or once the operator has
// ended (an error included) are dropped: nothing would consume them.
func (f *Feeder[I]) Feed(xs ...I) {
	if f.closed || f.rc.done {
		return
	}
	f.buf = append(f.buf, xs...)
}

// Close marks the feeder exhausted: once its buffer drains, Next reports
// ok=false and the operator runs its end-of-stream logic. Idempotent.
func (f *Feeder[I]) Close() { f.closed = true }

// Backlog returns the number of fed elements the operator has yet to
// consume: 0 once it has ended.
func (f *Feeder[I]) Backlog() int {
	if f.rc.done {
		return 0
	}
	return len(f.buf) - f.pos
}

// Start hands the runner its operator. run receives the emit callback
// whose emissions become the runner's pending output; it is invoked once,
// at the first Poll or Finish.
func (r *Runner[T]) Start(run func(emit func(T)) error) {
	rc := &r.rc
	emit := func(t T) {
		if !rc.stopped {
			r.pending = append(r.pending, t)
			r.total++
		}
	}
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		rc.yield = yield
		r.err = run(emit)
		rc.done = true
	})
}

// Poll resumes the operator until it suspends on a dry input or ends, and
// returns the emissions since the previous Poll — with the operator's
// error once it has ended with one. The returned slice is the runner's
// emission buffer: it is valid until the next Poll, Finish or Stop, which
// reuse its backing array, so a caller that keeps the emissions copies
// them out first.
func (r *Runner[T]) Poll() ([]T, error) {
	if !r.rc.done {
		r.next()
	}
	out := r.pending
	r.pending = r.pending[:0]
	return out, r.err
}

// Finish closes every feeder and polls: the operator sees end-of-stream on
// every input, runs its termination logic and ends. Its result lives in
// the emission buffer, as Poll's does.
func (r *Runner[T]) Finish() ([]T, error) {
	for _, c := range r.rc.closers {
		c()
	}
	return r.Poll()
}

// Stop abandons the run: every feeder reports exhaustion, pending and
// future emissions are dropped, and the operator has ended when Stop
// returns. Idempotent.
func (r *Runner[T]) Stop() {
	r.rc.stopped = true
	r.pending = nil
	r.stop()
	r.rc.done = true // a run never resumed ends without entering the operator
}

// Emitted returns the number of elements ever emitted, polled or not.
func (r *Runner[T]) Emitted() int64 { return r.total }

// Done reports whether the operator has ended.
func (r *Runner[T]) Done() bool { return r.rc.done }

// ensure Feeder satisfies the stream interface the operators consume.
var _ stream.Stream[int] = (*Feeder[int])(nil)
