package obs

import "tdb/internal/metrics"

// Node is the record of one plan-node execution, the one per-node record
// of the system: the engine appends one per node to its Stats, the node's
// span carries it as its outcome, a JSONL trace line encodes it under its
// tags, and PublishNode exports it to the registry.
type Node struct {
	Label     string        `json:"label"`
	Algorithm string        `json:"algorithm,omitempty"`
	Probe     metrics.Probe `json:"probe"`
	OutRows   int64         `json:"out_rows"`
	// SortedRows counts rows that had to be sorted to establish the
	// algorithm's required ordering: 0 when the input already had it —
	// the "interesting order" case — and 0 when the endpoint index served
	// a base relation's or a stored relation's order, which sorts nothing.
	SortedRows int64 `json:"sorted_rows,omitempty"`
	// SortRuns and SortPages account external sorting done to establish
	// this operator's input ordering under a bounded sort workspace.
	SortRuns  int   `json:"sort_runs,omitempty"`
	SortPages int64 `json:"sort_pages,omitempty"`
	// PagesRead counts storage pages fetched by a stored scan (0 when
	// served by the buffer pool, by the relation index or scanning an
	// in-memory relation).
	PagesRead int64 `json:"pages_read,omitempty"`
	// Notes record qualitative execution decisions (sort avoided via an
	// interesting order, spill to run files, predicate shape) for the
	// EXPLAIN ANALYZE tree and the JSONL trace.
	Notes []string `json:"notes,omitempty"`
	// Curve is the operator's sampled state(t) curve: set on traced runs
	// of the stream operators, which feed a StateSampler as they sweep.
	Curve []Sample `json:"state_curve,omitempty"`
	// Allocs and AllocBytes are the heap allocations of the node's own
	// execution, exclusive of its child nodes, measured on runs that are
	// both traced and profiled; Profiled marks those records, so that a
	// zero count is told apart from one not measured.
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Profiled   bool  `json:"profiled,omitempty"`
}

// Per-operator metric names and bucket layout. PublishNode is the one
// export path from a node record to the registry: the engine calls it
// once per finished plan node, so no caller re-implements (and none can
// double-report) the per-operator counter set.
const (
	MetricOperatorWorkspace   = "tdb_operator_workspace_tuples"
	MetricOperatorComparisons = "tdb_operator_comparisons_total"
	MetricOperatorGCDiscarded = "tdb_operator_gc_discarded_total"
	MetricOperatorStateGrows  = "tdb_operator_state_grows_total"
	MetricSortRows            = "tdb_sort_rows_total"
)

// WorkspaceBuckets returns the shared bucket layout of the per-operator
// workspace histogram.
func WorkspaceBuckets() []float64 { return ExpBuckets(1, 4, 10) }

// PublishNode exports one plan node's totals: the workspace high-water
// mark into the shared histogram (preserving the Tables 1–3 semantics —
// one observation per operator execution, never a running sum) and the
// additive counters, sorted rows included, into their families. Safe on a
// nil registry or node.
func (r *Registry) PublishNode(n *Node) {
	if r == nil {
		return
	}
	if n == nil {
		return
	}
	p := &n.Probe
	r.Histogram(MetricOperatorWorkspace, "per-operator workspace high-water marks",
		WorkspaceBuckets()).Observe(float64(p.Workspace()))
	r.Counter(MetricOperatorComparisons, "predicate evaluations across operators").Add(p.Comparisons)
	r.Counter(MetricOperatorGCDiscarded, "state tuples discarded by operator GC").Add(p.GCDiscarded)
	r.Counter(MetricOperatorStateGrows, "sweep-state appends that grew a backing array").Add(p.StateGrows)
	r.Counter(MetricSortRows, "rows sorted to establish stream orderings").Add(n.SortedRows)
}
