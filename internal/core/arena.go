package core

import (
	"sync"

	"tdb/internal/interval"
)

// activeList is the gapless active-tuple list of a batch sweep: the
// endpoints of the retained tuples in flat parallel arrays plus their row
// indexes in the input columns. Scans walk two int64 arrays; removal is an
// order-preserving compaction (the emission contract requires insertion
// order, so the classic swap-remove is off the table — compaction is still
// a single forward pass with no holes).
type activeList struct {
	ts, te []interval.Time
	idx    []int32
}

func (a *activeList) reset() {
	a.ts, a.te, a.idx = a.ts[:0], a.te[:0], a.idx[:0]
}

// arenaCap pre-sizes the pooled active lists. The sweeps of Tables 1–3
// hold the concurrently-live tuples only; 256 covers the experiments'
// steady state so a pooled kernel run never grows its state arrays.
const arenaCap = 256

// sweepArena is the reusable state of one batch kernel run: one active
// list per input. Arenas are pooled; a kernel acquires one before
// entering its hot loop, takes local slice views (`s[:0]`, keeping the
// backing arrays), and releases the arena — with whatever capacity the run
// grew — when it returns. Reuse across runs keeps allocation off the sweep
// entirely after warm-up; the pool owns lifetime, release resets length
// but never capacity.
type sweepArena struct {
	x, y activeList
}

var sweepPool = sync.Pool{
	New: func() any {
		return &sweepArena{
			x: activeList{
				ts:  make([]interval.Time, 0, arenaCap),
				te:  make([]interval.Time, 0, arenaCap),
				idx: make([]int32, 0, arenaCap),
			},
			y: activeList{
				ts:  make([]interval.Time, 0, arenaCap),
				te:  make([]interval.Time, 0, arenaCap),
				idx: make([]int32, 0, arenaCap),
			},
		}
	},
}

// acquireSweep takes a reset arena from the pool.
func acquireSweep() *sweepArena {
	a := sweepPool.Get().(*sweepArena)
	a.x.reset()
	a.y.reset()
	return a
}

// release returns the arena to the pool for the next kernel run.
func (a *sweepArena) release() { sweepPool.Put(a) }
