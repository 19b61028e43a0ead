package catalog

import "tdb/internal/interval"

// Incremental maintains the statistics of a relation under append-only,
// TS-ordered arrival without ever rescanning the relation: each Observe is
// O(log maxconc) for the concurrency sweep plus O(1) for the moments. A
// Catalog owns one Incremental per temporal relation, from its sorted
// registered rows on, and republishes its snapshot as rows are appended,
// so standing-query admission always sees current λ and duration moments.
type Incremental struct {
	s      Stats
	durSum int64
	// ends is a min-heap of the ValidTo instants of lifespans still open
	// at the current arrival frontier. Under TS-ordered arrival, popping
	// every end ≤ the incoming start before pushing the new end makes the
	// heap size the exact concurrency at that start — the same value the
	// batch event sweep computes (close-before-open, half-open spans).
	ends []interval.Time
}

// NewIncremental returns an empty incremental statistics accumulator.
func NewIncremental() *Incremental {
	return &Incremental{}
}

// Observe folds one lifespan into the statistics. Arrivals are expected in
// ValidFrom order; an out-of-order span is still counted, but
// MaxConcurrency is then no longer exact. An empty lifespan (TS = TE)
// covers no chronon and adds nothing to the concurrency.
func (inc *Incremental) Observe(iv interval.Interval) {
	s := &inc.s
	if s.Cardinality == 0 {
		s.MinTS, s.MaxTS = iv.Start, iv.Start
		s.MinTE, s.MaxTE = iv.End, iv.End
	} else {
		if iv.Start < s.MinTS {
			s.MinTS = iv.Start
		}
		if iv.Start > s.MaxTS {
			s.MaxTS = iv.Start
		}
		if iv.End < s.MinTE {
			s.MinTE = iv.End
		}
		if iv.End > s.MaxTE {
			s.MaxTE = iv.End
		}
	}
	s.Cardinality++
	d := iv.Duration()
	inc.durSum += d
	if d > s.MaxDuration {
		s.MaxDuration = d
	}
	s.MeanDuration = float64(inc.durSum) / float64(s.Cardinality)
	if span := int64(s.MaxTS) - int64(s.MinTS); span > 0 && s.Cardinality > 1 {
		s.Lambda = float64(s.Cardinality-1) / float64(span)
	}

	// Concurrency sweep: retire lifespans that closed at or before this
	// arrival (half-open intervals: End == Start does not overlap).
	for len(inc.ends) > 0 && inc.ends[0] <= iv.Start {
		heapPopEnd(&inc.ends)
	}
	if iv.End > iv.Start {
		heapPushEnd(&inc.ends, iv.End)
		s.MaxConcurrency = max(s.MaxConcurrency, len(inc.ends))
	}
}

// Snapshot returns a copy of the current statistics, safe to publish into
// a Catalog while Observe continues.
func (inc *Incremental) Snapshot() *Stats {
	s := inc.s
	return &s
}

// ActiveSpans returns the number of lifespans still open at the arrival
// frontier — the instantaneous concurrency the workspace gauges report.
func (inc *Incremental) ActiveSpans() int { return len(inc.ends) }

// heapPushEnd / heapPopEnd maintain a slice as a binary min-heap of
// ValidTo instants (hand-rolled to avoid interface boxing on the hot
// ingestion path).
func heapPushEnd(h *[]interval.Time, t interval.Time) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func heapPopEnd(h *[]interval.Time) {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < n && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
}
