package stream

// kmerge is the order-preserving k-way merge the parallel executor uses
// to recombine per-shard outputs into one stream with the declared sort
// order intact.
type kmerge[T any] struct {
	cmp    func(a, b T) int
	parts  []Stream[T]
	heads  []T
	ok     []bool
	err    error
	primed bool
}

// MergeK merges individually ordered streams into one ordered stream
// under cmp. The merge is deterministic and stable: ties go to the
// earliest part, and elements of one part keep their relative order — so
// when the parts' key ranges ascend disjointly the output is exactly
// their concatenation. The first part failure fails the merged stream;
// the error remains visible from Err after exhaustion.
func MergeK[T any](cmp func(a, b T) int, parts ...Stream[T]) Stream[T] {
	return &kmerge[T]{
		cmp:   cmp,
		parts: parts,
		heads: make([]T, len(parts)),
		ok:    make([]bool, len(parts)),
	}
}

// fill reloads the buffered head of part i, capturing the first error.
func (m *kmerge[T]) fill(i int) {
	x, ok := m.parts[i].Next()
	if ok {
		m.heads[i], m.ok[i] = x, true
		return
	}
	m.ok[i] = false
	if err := m.parts[i].Err(); err != nil && m.err == nil {
		m.err = err
	}
}

func (m *kmerge[T]) Next() (T, bool) {
	var zero T
	if !m.primed {
		m.primed = true
		for i := range m.parts {
			m.fill(i)
		}
	}
	if m.err != nil {
		return zero, false
	}
	best := -1
	for i := range m.heads {
		if m.ok[i] && (best < 0 || m.cmp(m.heads[i], m.heads[best]) < 0) {
			best = i
		}
	}
	if best < 0 {
		return zero, false
	}
	x := m.heads[best]
	m.fill(best)
	if m.err != nil {
		// The refill failed: stop at the error rather than emitting an
		// element whose successors are unknown (bufio.Scanner discipline).
		return zero, false
	}
	return x, true
}

func (m *kmerge[T]) Err() error { return m.err }

// dedup suppresses consecutive duplicates.
type dedup[T any] struct {
	in    Stream[T]
	same  func(a, b T) bool
	prev  T
	begun bool
}

// Dedup drops every element equal (under same) to its immediate
// predecessor. After a position-ordered MergeK this removes the replicas
// of boundary-spanning tuples: all copies share a position (a global row
// index), so they arrive adjacent and collapse to one.
func Dedup[T any](in Stream[T], same func(a, b T) bool) Stream[T] {
	return &dedup[T]{in: in, same: same}
}

func (d *dedup[T]) Next() (T, bool) {
	for {
		x, ok := d.in.Next()
		if !ok {
			var zero T
			return zero, false
		}
		if d.begun && d.same(d.prev, x) {
			continue
		}
		d.prev, d.begun = x, true
		return x, true
	}
}

func (d *dedup[T]) Err() error { return d.in.Err() }
