// Package prof is the per-query resource-accounting layer beneath the
// tracer: cheap heap-allocation snapshots from runtime/metrics and
// pprof goroutine labels that slice CPU and heap profiles by plan
// operator.
//
// Attribution model. The runtime exposes process-wide allocation
// totals, not per-goroutine ones, so attribution follows the execution
// structure instead:
//
//   - A serial plan node runs exclusively on the query goroutine
//     between its span's begin and finish, so the snapshot delta over
//     that window is the node's own allocation (its children are
//     bracketed by their own spans and evaluated before the parent's
//     loop body runs; the engine subtracts child windows where they
//     nest).
//   - A parallel node aggregates its shard workers at the node span:
//     the workers are the only goroutines allocating inside the node's
//     window, so the node-level delta is the per-worker aggregate.
//     Individual worker spans carry no allocation delta — concurrent
//     windows over a process-wide counter would double-count.
//
// Per-operator profile slicing does not depend on that approximation:
// Do tags the executing goroutine with pprof labels (tdb.query,
// tdb.node, tdb.op), which the runtime attaches to every CPU and heap
// profile sample taken while the operator runs, so
// /debug/pprof/profile and /debug/pprof/heap cut exactly.
//
// Disabled-path cost. Accounting is off unless the engine run asks for
// it; the off path is one atomic load per span. The enabled path reads
// runtime.ReadMemStats — deliberately, over the cheaper runtime/metrics
// counters: those are flushed from per-P caches in span-sized batches,
// so a plan-node-sized window often reads a zero delta, while
// ReadMemStats flushes the caches and is exact. The read briefly stops
// the world, which is acceptable because it runs once per plan node on
// explicitly profiled runs only — never per tuple, never inside a sweep
// loop, and never when accounting is off.
package prof

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
)

// enabled is the process-wide master switch. The engine turns it on for
// profiled runs; when off, ReadSnap returns the zero Snap and Do runs
// its function without labels, so the disabled path costs one atomic
// load.
var enabled atomic.Bool

// SetEnabled turns resource accounting on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether resource accounting is on.
func Enabled() bool { return enabled.Load() }

// Snap is a point-in-time reading of the cumulative heap-allocation
// counters. The zero Snap means "not taken" (Taken false), which keeps
// unprofiled spans from reporting garbage deltas.
type Snap struct {
	Allocs uint64
	Bytes  uint64
	Taken  bool
}

// ReadSnap reads the current allocation totals. With accounting
// disabled it returns the zero Snap without touching the runtime.
func ReadSnap() Snap {
	if !enabled.Load() {
		return Snap{}
	}
	return readSnapAlways()
}

// readSnapAlways reads the totals regardless of the master switch —
// benchmarks and tests measure the read itself. It runs once per plan
// node on profiled runs; the MemStats buffer is a fixed-size local (no
// allocation), which the hotpath-alloc rule audits.
//
//tdb:hotpath
func readSnapAlways() Snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snap{Allocs: ms.Mallocs, Bytes: ms.TotalAlloc, Taken: true}
}

// Since returns the allocation-count and byte deltas between before and
// now. A before that was never taken (accounting was off at span begin)
// yields zeros, as does a window during which accounting was switched
// off.
func Since(before Snap) (allocs, bytes int64) {
	if !before.Taken {
		return 0, 0
	}
	now := ReadSnap()
	if !now.Taken {
		return 0, 0
	}
	return int64(now.Allocs - before.Allocs), int64(now.Bytes - before.Bytes)
}

// Label keys attached by Do. Profiles taken while an operator runs can
// be sliced by any of them (go tool pprof -tagfocus tdb.op=...).
const (
	LabelQuery = "tdb.query"
	LabelNode  = "tdb.node"
	LabelOp    = "tdb.op"
)

// Do runs f with the executing goroutine labeled (tdb.query, tdb.node,
// tdb.op) so concurrent CPU/heap profile samples attribute to the plan
// operator. With accounting disabled it calls f directly — no context,
// no label set, one atomic load.
func Do(query, node, op string, f func()) {
	if !enabled.Load() {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(
		LabelQuery, query,
		LabelNode, node,
		LabelOp, op,
	), func(context.Context) { f() })
}
