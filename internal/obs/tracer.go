package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tdb/internal/obs/prof"
)

// Span is one traced plan-node execution. Fields are written by the query
// goroutine between Begin and Finish and read only afterwards. A span's
// JSON encoding under its tags is its JSONL trace line.
type Span struct {
	QueryID  int64 `json:"query"`
	ID       int64 `json:"span"`
	ParentID int64 `json:"parent,omitempty"` // 0 for a query root
	StartNS  int64 `json:"start_ns"`
	DurNS    int64 `json:"dur_ns"`
	// Node is the plan node's record, handed over by Finish; its Label is
	// the one the span was begun with.
	Node
	Curve []Sample `json:"state_curve,omitempty"`
	Err   string   `json:"error,omitempty"`

	// Resource accounting (internal/obs/prof). Allocs/AllocBytes are the
	// heap-allocation deltas of this node's own execution, exclusive of
	// finished child spans: the runtime counters are process-global, so a
	// parent's window contains its children's, and Finish subtracts the
	// inclusive child totals accumulated in childAllocs/childBytes. Only
	// spans whose ProfBegin ran (serial nodes and the query root — never
	// concurrent worker spans, whose windows would overlap) carry deltas;
	// Profiled marks them so zero is distinguishable from "off".
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Profiled   bool  `json:"profiled,omitempty"`

	profStart   prof.Snap
	parent      *Span
	childAllocs int64
	childBytes  int64

	sampler *StateSampler
	done    bool
}

// ProfBegin snapshots the allocation counters at span start. The engine
// calls it only where the delta is attributable: on the query goroutine
// for serial node spans and the query root. With accounting disabled
// (prof.SetEnabled(false)) it is one atomic load and the span stays
// unprofiled.
func (s *Span) ProfBegin() {
	if s == nil {
		return
	}
	s.profStart = prof.ReadSnap()
}

// Tracer collects the spans of one or more queries. Spans are appended
// under a lock so a tracer may outlive many queries; the spans themselves
// follow the single-goroutine Probe discipline. A nil *Tracer hands out
// nil spans, making tracing free when disabled.
type Tracer struct {
	mu      sync.Mutex
	nextID  int64
	queries int64
	spans   []*Span
	clock   func() int64
}

// NewTracer returns an empty tracer stamping spans with wall-clock
// nanoseconds.
func NewTracer() *Tracer {
	return &Tracer{clock: func() int64 { return time.Now().UnixNano() }}
}

// BeginQuery opens a new query and returns its root span.
func (t *Tracer) BeginQuery(label string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.beginLocked(nil, t.queries, label)
}

// Begin opens a span under parent (nil parent attaches to the most recent
// query as a root-level span).
func (t *Tracer) Begin(parent *Span, label string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	qid := t.queries
	if parent != nil {
		qid = parent.QueryID
	}
	return t.beginLocked(parent, qid, label)
}

// beginLocked allocates a span; the caller holds the tracer lock.
func (t *Tracer) beginLocked(parent *Span, query int64, label string) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	s := &Span{
		QueryID: query,
		ID:      t.nextID,
		StartNS: t.clock(),
		Node:    Node{Label: label},
		parent:  parent,
	}
	if parent != nil {
		s.ParentID = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// now reads the tracer clock.
func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock()
}

// Sampler returns the span's state sampler, allocating it on first use so
// only traced operators pay for curve collection.
func (s *Span) Sampler() *StateSampler {
	if s == nil {
		return nil
	}
	if s.sampler == nil {
		s.sampler = NewStateSampler(DefaultSamples)
	}
	return s.sampler
}

// Finish stamps the duration and records the node outcome: the node's
// record, under the span's own label, and the sampled state curve.
// Finishing twice keeps the first outcome.
func (s *Span) Finish(t *Tracer, node Node) {
	if s == nil {
		return
	}
	if s.done {
		return
	}
	s.done = true
	s.DurNS = t.now() - s.StartNS
	node.Label = s.Label
	s.Node = node
	s.Curve = s.sampler.Samples()
	s.settleProf()
}

// Fail stamps the end time and records the error that aborted the node.
func (s *Span) Fail(t *Tracer, err error) {
	if s == nil {
		return
	}
	if s.done {
		return
	}
	s.done = true
	s.DurNS = t.now() - s.StartNS
	if err != nil {
		s.Err = err.Error()
	}
	s.Curve = s.sampler.Samples()
	s.settleProf()
}

// settleProf closes the allocation window: records this span's delta,
// subtracts the inclusive totals its finished children pushed up, and
// pushes the span's own inclusive delta to its parent. Runs only on the
// query goroutine (worker spans never take a profStart), so the parent
// fields need no lock.
func (s *Span) settleProf() {
	if s == nil {
		return
	}
	if !s.profStart.Taken {
		return
	}
	a, by := prof.Since(s.profStart)
	s.Profiled = true
	s.Allocs = max64(a-s.childAllocs, 0)
	s.AllocBytes = max64(by-s.childBytes, 0)
	if s.parent != nil {
		s.parent.childAllocs += a
		s.parent.childBytes += by
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Spans returns the collected spans in begin order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span{}, t.spans...)
}

// WriteJSONL writes every span as one JSON object per line, in begin
// order — the machine-readable trace export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Tree renders every traced query as a human EXPLAIN ANALYZE-style tree:
// one line per span with its algorithm, duration, output cardinality and
// probe totals, children indented under parents, notes beneath.
func (t *Tracer) Tree() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	children := map[int64][]*Span{}
	var roots []*Span
	for _, s := range spans {
		if s.ParentID == 0 {
			roots = append(roots, s)
			continue
		}
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var b strings.Builder
	var walk func(s *Span, prefix string, last bool)
	walk = func(s *Span, prefix string, last bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		if s.ParentID == 0 {
			branch, childPrefix = "", ""
			fmt.Fprintf(&b, "query #%d  %s  (%.3fms", s.QueryID, s.Label, ms(s))
			if s.Profiled {
				// The root line reports the query's inclusive totals.
				fmt.Fprintf(&b, " allocs=%d B=%d", s.Allocs+s.childAllocs, s.AllocBytes+s.childBytes)
			}
			b.WriteString(")\n")
		} else {
			fmt.Fprintf(&b, "%s%s%s", prefix, branch, s.Label)
			if s.Algorithm != "" {
				fmt.Fprintf(&b, "  [%s]", s.Algorithm)
			}
			fmt.Fprintf(&b, "  %.3fms out=%d %s", ms(s), s.OutRows, s.Probe.String())
			if s.Profiled {
				fmt.Fprintf(&b, " allocs/op=%d B/op=%d", s.Allocs, s.AllocBytes)
			}
			if p := &s.Probe; p.StateGrows > 0 || p.ActivePeak > 0 {
				fmt.Fprintf(&b, " grows=%d peak=%d", p.StateGrows, p.ActivePeak)
			}
			if p := &s.Probe; p.Emitted > 0 && p.Comparisons > 0 {
				fmt.Fprintf(&b, " cmp/row=%.1f", float64(p.Comparisons)/float64(p.Emitted))
			}
			if n := len(s.Curve); n > 0 {
				fmt.Fprintf(&b, " curve=%dpt", n)
			}
			b.WriteString("\n")
			for _, note := range s.Notes {
				fmt.Fprintf(&b, "%s   · %s\n", childPrefix, note)
			}
			if s.Err != "" {
				fmt.Fprintf(&b, "%s   ! %s\n", childPrefix, s.Err)
			}
		}
		kids := children[s.ID]
		for i, k := range kids {
			walk(k, childPrefix, i == len(kids)-1)
		}
	}
	for _, r := range roots {
		walk(r, "", true)
	}
	return b.String()
}

func ms(s *Span) float64 {
	if s == nil {
		return 0
	}
	return float64(s.DurNS) / 1e6
}
