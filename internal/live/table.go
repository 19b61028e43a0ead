package live

import (
	"errors"
	"fmt"
	"sort"

	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
)

// ErrLateTuple is the rejection for a tuple arriving behind the watermark:
// accepting it would violate the TS-ordered arrival the stream operators'
// state characterizations assume.
var ErrLateTuple = errors.New("live: tuple behind watermark")

// Table is the append-only ingestion front of one relation. Tuples arrive
// in (approximately) ValidFrom order; a reorder buffer of `slack` chronons
// absorbs bounded disorder, and the watermark — the highest released
// ValidFrom frontier — advances as maxTS−slack. Rows at or above the
// watermark are buffered; rows strictly behind it are rejected. Released
// rows are appended to storage (with incremental catalog statistics) and
// fed to every standing query scanning the relation.
type Table struct {
	m      *Manager
	name   string
	schema *relation.Schema
	slack  interval.Time

	watermark interval.Time  // release frontier: all released rows have TS ≤ watermark
	maxTS     interval.Time  // highest ValidFrom ever accepted
	buf       []relation.Row // reorder buffer, ValidFrom-sorted, arrival-stable on ties
	released  int64
	rejected  int64

	gWatermark *obs.Gauge
	gBuffered  *obs.Gauge
	gActive    *obs.Gauge
	cIngested  *obs.Counter
	cRejected  *obs.Counter
}

func (t *Table) metrics() {
	if t.gWatermark != nil || t.m.reg == nil {
		return
	}
	t.gWatermark = t.m.gauge("tdb_live_watermark_"+t.name, "release frontier (ValidFrom) of "+t.name)
	t.gBuffered = t.m.gauge("tdb_live_buffered_"+t.name, "rows in the reorder buffer of "+t.name)
	t.gActive = t.m.gauge("tdb_live_active_spans_"+t.name, "lifespans open at the append frontier of "+t.name)
	t.cIngested = t.m.counter("tdb_live_ingested_total_"+t.name, "rows accepted into "+t.name)
	t.cRejected = t.m.counter("tdb_live_rejected_total_"+t.name, "late tuples rejected by "+t.name)
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Watermark returns the release frontier.
func (t *Table) Watermark() interval.Time { return t.watermark }

// Released returns the number of rows released into storage.
func (t *Table) Released() int64 { return t.released }

// Rejected returns the number of late tuples rejected.
func (t *Table) Rejected() int64 { return t.rejected }

// Buffered returns the reorder-buffer occupancy.
func (t *Table) Buffered() int { return len(t.buf) }

// Append ingests one row. Rows with ValidFrom below the watermark are
// rejected with ErrLateTuple; rows within the slack window are buffered
// and released in ValidFrom order once the watermark passes them.
func (t *Table) Append(row relation.Row) error {
	t.metrics()
	if err := fault.Check("live/append"); err != nil {
		return fmt.Errorf("live: append to %s: %w", t.name, err)
	}
	if err := t.schema.CheckRow(row); err != nil {
		return fmt.Errorf("live: append to %s: %w", t.name, err)
	}
	ts := row.Span(t.schema).Start
	if ts < t.watermark {
		t.rejected++
		t.cRejected.Inc()
		return fmt.Errorf("%w: %s ts=%d < watermark %d", ErrLateTuple, t.name, ts, t.watermark)
	}
	// Insert after any buffered row with the same ValidFrom, keeping the
	// buffer ValidFrom-sorted and arrival-stable on ties.
	i := sort.Search(len(t.buf), func(i int) bool {
		return t.buf[i].Span(t.schema).Start > ts
	})
	t.buf = append(t.buf, nil)
	copy(t.buf[i+1:], t.buf[i:])
	t.buf[i] = row
	t.cIngested.Inc()
	if ts > t.maxTS {
		t.maxTS = ts
	}
	if wm := t.maxTS - t.slack; wm > t.watermark {
		t.watermark = wm
	}
	return t.release(t.watermark)
}

// release appends every buffered row with ValidFrom ≤ frontier to storage
// and feeds it to the standing queries, in ValidFrom order.
func (t *Table) release(frontier interval.Time) error {
	n := sort.Search(len(t.buf), func(i int) bool {
		return t.buf[i].Span(t.schema).Start > frontier
	})
	if n == 0 {
		t.observe()
		return nil
	}
	out := t.buf[:n]
	for i, row := range out {
		if err := t.m.db.Append(t.name, row); err != nil {
			// Rows [0,i) are durably appended: trim them from the buffer
			// so a retry cannot double-append, and wrap the cause so
			// errors.Is works through the ingestion boundary.
			t.released += int64(i)
			t.buf = append([]relation.Row(nil), t.buf[i:]...)
			t.observe()
			return fmt.Errorf("live: release %s: %w", t.name, err)
		}
	}
	t.released += int64(n)
	t.buf = append([]relation.Row(nil), t.buf[n:]...)
	// Delivery runs after the buffer trim: the released rows are durable
	// regardless of a standing query's delivery failing.
	ferr := t.m.feedReleased(t.name, out)
	t.observe()
	return ferr
}

// Flush force-releases the reorder buffer (advancing the watermark to the
// highest buffered ValidFrom) and republishes the catalog statistics —
// used at batch boundaries and before draining standing queries. The
// buffered rows were already arity-checked, but storage writes and
// standing-query delivery can still fail; the error is propagated.
func (t *Table) Flush() error {
	t.metrics()
	if t.maxTS > t.watermark {
		t.watermark = t.maxTS
	}
	err := t.release(t.maxTS)
	t.m.db.RefreshStats(t.name)
	t.observe()
	return err
}

func (t *Table) observe() {
	t.gWatermark.Set(int64(t.watermark))
	t.gBuffered.Set(int64(len(t.buf)))
	t.gActive.Set(int64(t.m.db.ActiveSpans(t.name)))
}
