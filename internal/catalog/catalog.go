// Package catalog implements the statistical metadata the paper's
// Section 6 calls for: "in addition to conventional statistical information
// such as relation size ... estimating the amount of local workspace
// becomes necessary". For each temporal relation it derives the arrival
// rate λ (whose reciprocal the Contain-join read policy uses), duration
// moments, and the exact maximum concurrency; from λ and the mean duration
// it predicts the stream algorithms' workspace by Little's law — the
// number of lifespans in progress at a random instant is λ·E[duration] —
// which experiment E13 validates against measured high-water marks.
package catalog

import (
	"fmt"
	"slices"

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

// Collect computes statistics over the lifespans of a temporal relation.
func Collect(rel *relation.Relation) (*Stats, error) {
	if !rel.Schema.Temporal() {
		return nil, fmt.Errorf("catalog: relation %s is not temporal", rel.Name)
	}
	spans := make([]interval.Interval, rel.Cardinality())
	for i := range rel.Rows {
		spans[i] = rel.Span(i)
	}
	return FromSpans(spans), nil
}

// FromSpans computes statistics over raw lifespans.
func FromSpans(spans []interval.Interval) *Stats {
	s := &Stats{Cardinality: len(spans)}
	if len(spans) == 0 {
		return s
	}
	s.MinTS, s.MaxTS = spans[0].Start, spans[0].Start
	s.MinTE, s.MaxTE = spans[0].End, spans[0].End
	var durSum int64
	for _, iv := range spans {
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
		d := iv.Duration()
		durSum += d
		if d > s.MaxDuration {
			s.MaxDuration = d
		}
	}
	s.MeanDuration = float64(durSum) / float64(len(spans))
	if span := int64(s.MaxTS) - int64(s.MinTS); span > 0 && len(spans) > 1 {
		s.Lambda = float64(len(spans)-1) / float64(span)
	}
	s.MaxConcurrency = maxConcurrency(spans)
	return s
}

// maxConcurrency is the largest number of lifespans open at one instant:
// one merge of the sorted start and end columns, ends first at equal
// times because lifespans are half-open.
func maxConcurrency(spans []interval.Interval) int {
	starts := make([]interval.Time, len(spans))
	ends := make([]interval.Time, len(spans))
	for i, iv := range spans {
		starts[i], ends[i] = iv.Start, iv.End
	}
	slices.Sort(starts)
	slices.Sort(ends)
	cur, max, j := 0, 0, 0
	for _, t := range starts {
		for ; j < len(ends) && ends[j] <= t; j++ {
			cur--
		}
		if cur++; cur > max {
			max = cur
		}
	}
	return max
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

// MeanGap returns 1/λ in chronons — the expected ValidFrom spacing used by
// the λ-guided read policy — or 1 when λ is unknown.
func (s *Stats) MeanGap() float64 {
	if s == nil || s.Lambda <= 0 {
		return 1
	}
	return 1 / s.Lambda
}

// String renders the statistics in one line.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d ts=[%d,%d] te=[%d,%d] λ=%.4f E[dur]=%.2f maxconc=%d predws=%.1f",
		s.Cardinality, s.MinTS, s.MaxTS, s.MinTE, s.MaxTE,
		s.Lambda, s.MeanDuration, s.MaxConcurrency, s.PredictedWorkspace())
}

// Catalog is the named collection of relation statistics the optimizer
// consults.
type Catalog struct {
	stats map[string]*Stats
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{stats: make(map[string]*Stats)} }

// Analyze computes and records statistics for the relation.
func (c *Catalog) Analyze(rel *relation.Relation) (*Stats, error) {
	s, err := Collect(rel)
	if err != nil {
		return nil, err
	}
	c.stats[rel.Name] = s
	return s, nil
}

// Lookup returns the recorded statistics for a relation name, or nil.
func (c *Catalog) Lookup(name string) *Stats { return c.stats[name] }
