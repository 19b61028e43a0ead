package storage

import (
	"sync/atomic"

	"tdb/internal/obs"
)

// ioCounters is the set of live storage instruments. The per-file IOStats
// remain the source of truth for cost accounting; these counters add the
// process-wide running totals the /metrics endpoint exposes.
type ioCounters struct {
	pagesRead    *obs.Counter
	pagesWritten *obs.Counter
	poolHits     *obs.Counter
	sortRuns     *obs.Counter
}

// liveIO holds the registered counters; nil (the default) means metrics are
// off and the increment sites pay one atomic load plus a branch.
var liveIO atomic.Pointer[ioCounters]

// ObserveIO registers the storage layer's counters with reg and routes all
// subsequent page and sort-run traffic to them. Passing a nil registry
// turns the live counters off again. Safe to call while scans run.
func ObserveIO(reg *obs.Registry) {
	if reg == nil {
		liveIO.Store(nil)
		return
	}
	liveIO.Store(&ioCounters{
		pagesRead:    reg.Counter("tdb_storage_pages_read_total", "heap-file pages read from disk"),
		pagesWritten: reg.Counter("tdb_storage_pages_written_total", "heap-file pages written to disk"),
		poolHits:     reg.Counter("tdb_storage_pool_hits_total", "page reads served by the buffer pool"),
		sortRuns:     reg.Counter("tdb_storage_sort_runs_total", "external-sort runs formed"),
	})
}

func obsPageRead() {
	if c := liveIO.Load(); c != nil {
		c.pagesRead.Inc()
	}
}

func obsPageWritten() {
	if c := liveIO.Load(); c != nil {
		c.pagesWritten.Inc()
	}
}

func obsPoolHit() {
	if c := liveIO.Load(); c != nil {
		c.poolHits.Inc()
	}
}

func obsSortRun() {
	if c := liveIO.Load(); c != nil {
		c.sortRuns.Inc()
	}
}
