// Package metrics implements the instrumentation through which the
// experiments observe the stream algorithms: tuples read per input, output
// cardinality, predicate comparisons, garbage-collection activity, scan
// (pass) counts, and — central to the paper's Tables 1–3 — the local
// workspace high-water mark, measured in retained tuples so that results
// are directly comparable to the paper's analytic state characterizations.
//
// All methods are nil-receiver safe: production code paths pass a nil
// *Probe and pay only a branch.
package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Probe accumulates the observable costs of one operator execution. Its
// JSON encoding (the trace's "probe" object) carries the exported totals
// under their tags plus the computed workspace.
type Probe struct {
	ReadLeft    int64 `json:"read_left"`    // tuples read from the left (X) input
	ReadRight   int64 `json:"read_right"`   // tuples read from the right (Y) input
	Emitted     int64 `json:"emitted"`      // result tuples produced
	Comparisons int64 `json:"comparisons"`  // predicate evaluations
	GCDiscarded int64 `json:"gc_discarded"` // state tuples discarded by garbage collection
	Passes      int64 `json:"passes"`       // complete scans taken over inputs

	// Workspace accounting. State counts tuples retained beyond the
	// one-tuple input buffers; Buffers is the fixed buffer count of the
	// algorithm (typically 2). The high-water marks are what Tables 1–3
	// characterize.
	state          int64
	StateHighWater int64 `json:"state_hwm"`
	Buffers        int64 `json:"buffers"`

	// Hot-loop counters, fed by the //tdb:hotpath sweep loops. StateGrows
	// counts appends that grew a state slice's backing array (each one is
	// an allocation plus a copy inside the sweep); ActivePeak is the
	// largest single active-list length observed — unlike StateHighWater
	// it tracks one list, not the sum of both sides, which is what the
	// cache-efficiency rewrite needs to size gapless lists.
	StateGrows int64 `json:"state_grows,omitempty"`
	ActivePeak int64 `json:"active_peak,omitempty"`
}

// IncReadLeft notes a tuple read from the left input.
func (p *Probe) IncReadLeft() {
	if p != nil {
		p.ReadLeft++
	}
}

// IncReadRight notes a tuple read from the right input.
func (p *Probe) IncReadRight() {
	if p != nil {
		p.ReadRight++
	}
}

// IncEmitted notes n result tuples.
func (p *Probe) IncEmitted(n int64) {
	if p != nil {
		p.Emitted += n
	}
}

// IncComparisons notes n predicate evaluations.
func (p *Probe) IncComparisons(n int64) {
	if p != nil {
		p.Comparisons += n
	}
}

// IncPasses notes a completed scan over an input.
func (p *Probe) IncPasses() {
	if p != nil {
		p.Passes++
	}
}

// SetBuffers records the algorithm's fixed buffer count.
func (p *Probe) SetBuffers(n int64) {
	if p != nil {
		p.Buffers = n
	}
}

// StateAdd notes n tuples entering the retained state and updates the
// high-water mark.
func (p *Probe) StateAdd(n int64) {
	if p == nil {
		return
	}
	p.state += n
	if p.state > p.StateHighWater {
		p.StateHighWater = p.state
	}
}

// StateRemove notes n tuples leaving the retained state via garbage
// collection.
func (p *Probe) StateRemove(n int64) {
	if p == nil {
		return
	}
	p.state -= n
	p.GCDiscarded += n
	if p.state < 0 {
		// lint:allow panic — accounting invariant: an operator removed state it never added
		panic(fmt.Sprintf("metrics: state went negative (%d)", p.state))
	}
}

// IncStateGrow notes an append that grew a state slice's backing array.
func (p *Probe) IncStateGrow() {
	if p != nil {
		p.StateGrows++
	}
}

// ObserveActive notes the current length n of one active list and keeps
// the peak.
func (p *Probe) ObserveActive(n int64) {
	if p == nil {
		return
	}
	if n > p.ActivePeak {
		p.ActivePeak = n
	}
}

// StateNow returns the currently retained tuple count.
func (p *Probe) StateNow() int64 {
	if p == nil {
		return 0
	}
	return p.state
}

// Workspace returns the workspace high-water mark: retained state plus the
// fixed buffers. For the buffers-only algorithms of Table 1 case (d) this
// is exactly Buffers.
func (p *Probe) Workspace() int64 {
	if p == nil {
		return 0
	}
	return p.StateHighWater + p.Buffers
}

// TuplesRead returns the total input tuples consumed.
func (p *Probe) TuplesRead() int64 {
	if p == nil {
		return 0
	}
	return p.ReadLeft + p.ReadRight
}

// Merge folds another probe's totals into p, for aggregating per-operator
// probes into plan-level totals. Additive counters sum; the workspace
// marks combine by maximum, since child operators run as one pipeline and
// the plan's workspace is bounded by its largest resident operator.
func (p *Probe) Merge(other *Probe) {
	if p == nil {
		return
	}
	if other == nil {
		return
	}
	p.ReadLeft += other.ReadLeft
	p.ReadRight += other.ReadRight
	p.Emitted += other.Emitted
	p.Comparisons += other.Comparisons
	p.GCDiscarded += other.GCDiscarded
	p.Passes += other.Passes
	p.StateGrows += other.StateGrows
	if other.StateHighWater > p.StateHighWater {
		p.StateHighWater = other.StateHighWater
	}
	if other.Buffers > p.Buffers {
		p.Buffers = other.Buffers
	}
	if other.ActivePeak > p.ActivePeak {
		p.ActivePeak = other.ActivePeak
	}
}

// MarshalJSON encodes the exported totals under their tags and adds the
// computed workspace high-water mark. The receiver is a pointer so a nil
// probe stays safe; encoding/json calls it on addressable probes, such as
// those reached through a *Span or a *Node.
func (p *Probe) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	type totals Probe // without this method, so the encoding does not recurse
	return json.Marshal(struct {
		*totals
		Workspace int64 `json:"workspace"`
	}{(*totals)(p), p.Workspace()})
}

// String renders a compact one-line report.
func (p *Probe) String() string {
	if p == nil {
		return "probe(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "read=%d+%d emitted=%d cmp=%d gc=%d passes=%d state-hwm=%d buffers=%d workspace=%d",
		p.ReadLeft, p.ReadRight, p.Emitted, p.Comparisons, p.GCDiscarded, p.Passes,
		p.StateHighWater, p.Buffers, p.Workspace())
	return b.String()
}
