// Package obs is the observability layer of the engine: a per-query tracer
// producing one span per plan node (each carrying the node's one record,
// Node, and a time-sampled state curve), a registry of named counters,
// gauges and fixed-bucket histograms with Prometheus text exposition, and
// an HTTP endpoint serving /metrics, expvar and net/http/pprof while
// queries run.
//
// The paper's evaluation (Tables 1–3) is a characterization of local
// workspace *state over time*; the seed reproduction only kept a scalar
// high-water mark per operator. This package turns those characterizations
// into observable trajectories: each stream operator can be given a
// StateSampler that records state(t) against the operator's logical clock.
//
// Node is the only per-node record. The engine appends one per plan node
// to its Stats; Span.Finish takes that record as it is; a JSONL trace line
// is the span's JSON encoding under its struct tags; Tracer.Tree renders
// the human EXPLAIN ANALYZE tree; and Registry.PublishNode is the single
// export path from a node to the registry.
//
// The resource-accounting layer: the internal/obs/prof subpackage reads
// allocation counters and attaches pprof labels per operator; spans
// opened with ProfBegin carry per-node alloc/bytes deltas into EXPLAIN
// ANALYZE; and an EventLog journals operational events (slow queries,
// governor fallbacks, breaker trips) as deterministic JSONL.
//
// Everything here is stdlib-only, and every pointer-receiver method on the
// instrument types (Tracer, Span, StateSampler, Counter, Gauge, Histogram,
// Registry, EventLog) is nil-receiver safe: production code paths pass nil
// hooks and pay only a branch — the same discipline as metrics.Probe,
// enforced by the tdblint probe-nil-safety rule.
//
// Like metrics.Probe, a Tracer's spans and a StateSampler belong to the
// single goroutine executing the query; the Registry and its instruments
// are safe for concurrent use, so the HTTP endpoint can scrape /metrics
// while queries run.
package obs
