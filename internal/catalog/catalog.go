// Package catalog implements the statistical metadata the paper's
// Section 6 calls for: "in addition to conventional statistical information
// such as relation size ... estimating the amount of local workspace
// becomes necessary". For each temporal relation it derives the arrival
// rate λ (whose reciprocal the Contain-join read policy uses), duration
// moments, and the exact maximum concurrency; from λ and the mean duration
// it predicts the stream algorithms' workspace by Little's law — the
// number of lifespans in progress at a random instant is λ·E[duration] —
// which experiment E13 validates against measured high-water marks.
//
// Every figure comes from one fold in ValidFrom order (Incremental): a
// Catalog sorts a relation's lifespans once when it starts tracking them
// and folds each appended lifespan into the same accumulator from then
// on, and FromSpans is the same sort and fold over raw lifespans.
package catalog

import (
	"fmt"

	"tdb/internal/interval"
	"tdb/internal/relation"
)

// Stats summarizes the temporal shape of one relation.
type Stats struct {
	Cardinality  int
	MinTS, MaxTS interval.Time
	MinTE, MaxTE interval.Time
	MeanDuration float64
	MaxDuration  int64
	// Lambda is the arrival rate in tuples per chronon, estimated as
	// (n-1) / (MaxTS - MinTS): the reciprocal of the mean gap between
	// consecutive ValidFrom values, the 1/λ of Section 4.2.1.
	Lambda float64
	// MaxConcurrency is the exact maximum number of lifespans covering
	// any single chronon — the tight bound on the spanning-set state
	// components of Table 1.
	MaxConcurrency int
}

// FromSpans computes statistics over raw lifespans, in any order.
func FromSpans(spans []interval.Interval) *Stats {
	ts, te := relation.ShredSpans(spans, func(iv interval.Interval) interval.Interval { return iv })
	return fold(ts, te).Snapshot()
}

// validFrom is the order the fold needs to count concurrency exactly.
var validFrom = relation.Order{relation.TSAsc}

// fold sorts lifespans given as endpoint columns into ValidFrom order, in
// place, and folds them into a fresh accumulator.
func fold(ts, te []interval.Time) *Incremental {
	relation.SortColumns(ts, te, validFrom, false)
	inc := NewIncremental()
	for i := range ts {
		inc.Observe(interval.Interval{Start: ts[i], End: te[i]})
	}
	return inc
}

// PredictedWorkspace estimates the spanning-set state size by Little's law:
// the expected number of lifespans in progress is the arrival rate times
// the mean lifespan duration.
func (s *Stats) PredictedWorkspace() float64 {
	if s == nil {
		return 0
	}
	return s.Lambda * s.MeanDuration
}

// String renders the statistics in one line.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d ts=[%d,%d] te=[%d,%d] λ=%.4f E[dur]=%.2f maxconc=%d predws=%.1f",
		s.Cardinality, s.MinTS, s.MaxTS, s.MinTE, s.MaxTE,
		s.Lambda, s.MeanDuration, s.MaxConcurrency, s.PredictedWorkspace())
}

// publishEvery bounds how stale the published statistics of an appended
// relation may be, in rows.
const publishEvery = 64

// Catalog is the named collection of relation statistics the optimizer
// consults. It owns the accumulator of every temporal relation it tracks
// and publishes a snapshot of it, which Lookup returns, when tracking
// starts, every publishEvery observed rows and on Refresh.
type Catalog struct {
	rels map[string]*tracked
}

// tracked is one relation's accumulator and its published snapshot.
type tracked struct {
	inc         *Incremental
	pub         *Stats
	unpublished int
}

func (t *tracked) publish() {
	t.pub = t.inc.Snapshot()
	t.unpublished = 0
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{rels: make(map[string]*tracked)} }

// Track (re)starts the statistics of a temporal relation from its
// lifespans, given as endpoint columns in any order, which it sorts in
// place, and publishes them.
func (c *Catalog) Track(name string, ts, te []interval.Time) {
	t := &tracked{inc: fold(ts, te)}
	t.publish()
	c.rels[name] = t
}

// Forget drops the statistics of a relation name, which Lookup then
// reports as unknown: the name now holds a relation with no lifespans.
func (c *Catalog) Forget(name string) { delete(c.rels, name) }

// Observe folds one lifespan appended to a tracked relation into its
// statistics and reports whether it republished them. Appends arrive in
// ValidFrom order from the tracked rows' latest ValidFrom on (the live
// ingestion contract), which keeps MaxConcurrency exact.
func (c *Catalog) Observe(name string, iv interval.Interval) bool {
	t := c.rels[name]
	t.inc.Observe(iv)
	if t.unpublished++; t.unpublished < publishEvery {
		return false
	}
	t.publish()
	return true
}

// Refresh publishes the statistics of a tracked relation that took rows
// since they were last published, and reports whether it did.
func (c *Catalog) Refresh(name string) bool {
	t, ok := c.rels[name]
	if !ok || t.unpublished == 0 {
		return false
	}
	t.publish()
	return true
}

// ActiveSpans returns the number of a tracked relation's lifespans open at
// its latest ValidFrom, or 0 for a name it does not track.
func (c *Catalog) ActiveSpans(name string) int {
	if t, ok := c.rels[name]; ok {
		return t.inc.ActiveSpans()
	}
	return 0
}

// Lookup returns the published statistics for a relation name, or nil.
func (c *Catalog) Lookup(name string) *Stats {
	if t, ok := c.rels[name]; ok {
		return t.pub
	}
	return nil
}
