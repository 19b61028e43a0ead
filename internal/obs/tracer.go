package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one traced plan-node execution: its identity, its timing, the
// node's record and, for a node that failed, its error. Fields are written
// by the query goroutine between Begin and Finish (or Fail) and read only
// afterwards. A span's JSON encoding under its tags is its JSONL trace
// line.
type Span struct {
	QueryID  int64 `json:"query"`
	ID       int64 `json:"span"`
	ParentID int64 `json:"parent,omitempty"` // 0 for a query root
	StartNS  int64 `json:"start_ns"`
	DurNS    int64 `json:"dur_ns"`
	// Node is the plan node's record, handed over by Finish or Fail; its
	// Label is the one the span was begun with.
	Node
	Err string `json:"error,omitempty"`

	done bool
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

// Finish stamps the duration and records the node's record under the
// span's own label. Finishing twice keeps the first outcome.
func (s *Span) Finish(t *Tracer, node Node) {
	if s == nil {
		return
	}
	s.end(t, node, "")
}

// Fail stamps the duration and records the error that aborted the node,
// with what the node's record holds of it: its state curve and its
// allocation window.
func (s *Span) Fail(t *Tracer, node Node, err error) {
	if s == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.end(t, node, msg)
}

// end closes the span once: the first Finish or Fail wins.
func (s *Span) end(t *Tracer, node Node, err string) {
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
	s.Err = err
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
	// A query's inclusive allocation totals are the sum of its spans'
	// exclusive ones.
	type allocTotal struct{ allocs, bytes int64 }
	totals := map[int64]allocTotal{}
	var roots []*Span
	for _, s := range spans {
		if s.Profiled {
			q := totals[s.QueryID]
			totals[s.QueryID] = allocTotal{q.allocs + s.Allocs, q.bytes + s.AllocBytes}
		}
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
				q := totals[s.QueryID]
				fmt.Fprintf(&b, " allocs=%d B=%d", q.allocs, q.bytes)
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
