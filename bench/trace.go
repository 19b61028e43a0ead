package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program under test runs with its own tracer off). Spans of one
// replayed request share Request; Parent is the enclosing span's ID, 0 at
// the root. Count is the work the call did (rows, pairs, pages, bytes).
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Request    int    `json:"request"`
	Layer      string `json:"layer"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Count      int64  `json:"count"`
	AllocBytes int64  `json:"alloc_bytes"`
	Mallocs    int64  `json:"mallocs"`
}

// recorder keeps spans in memory; flush writes them when the pass ends. A
// nil recorder records nothing, so one code path serves the untraced pass
// and the traced one.
type recorder struct {
	t0       time.Time
	spans    []span
	requests int
	// timeOnly skips the allocation counters: reading them stops the world
	// for tens of microseconds, too much beside a span that short.
	timeOnly bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// allocs reads the process's cumulative allocation counters. ReadMemStats
// is exact (it flushes the per-P caches the cheaper runtime/metrics
// counters lag behind by), which serial code can repeat to the byte.
func (r *recorder) allocs() (bytes, objects int64) {
	if r.timeOnly {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc), int64(ms.Mallocs)
}

func (r *recorder) request() int {
	if r == nil {
		return 0
	}
	r.requests++
	return r.requests
}

// begin opens a span and returns its ID. The allocation counters are read
// before the clock so the read is not charged to the span.
func (r *recorder) begin(parent, request int, layer, name string) int {
	if r == nil {
		return 0
	}
	b, o := r.allocs()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Request: request, Layer: layer, Name: name,
		AllocBytes: -b, Mallocs: -o,
	})
	s := &r.spans[len(r.spans)-1]
	s.StartNS = time.Since(r.t0).Nanoseconds()
	return s.ID
}

func (r *recorder) end(id int, count int64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.t0).Nanoseconds()
	b, o := r.allocs()
	s.AllocBytes += b
	s.Mallocs += o
	s.Count = count
}

// flush writes one JSON object per span.
func (r *recorder) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error wins
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// nest, abut or overlap one another (parallel shards); the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered int64
		edge := s.StartNS
		for _, k := range kids {
			lo, hi := k.lo, k.hi
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerCost is one layer's share of one replayed request.
type layerCost struct {
	selfNS     int64
	allocBytes int64
}

// requestCosts folds spans into per-request, per-"layer.name" self time
// and self allocation. Allocation is made exclusive the same way as
// time, by subtracting the children's.
func requestCosts(spans []span) map[int]map[string]layerCost {
	self := selfTimes(spans)
	childAlloc := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childAlloc[s.Parent] += s.AllocBytes
		}
	}
	out := map[int]map[string]layerCost{}
	for _, s := range spans {
		m := out[s.Request]
		if m == nil {
			m = map[string]layerCost{}
			out[s.Request] = m
		}
		key := s.Layer + "." + s.Name
		c := m[key]
		c.selfNS += self[s.ID]
		c.allocBytes += s.AllocBytes - childAlloc[s.ID]
		m[key] = c
	}
	return out
}

// budgetLine is one row of the stacked budget printed after a traced pass.
type budgetLine struct {
	Layer   string  `json:"layer"`
	SelfMS  float64 `json:"self_ms"`
	AllocKB float64 `json:"alloc_kb"`
}

// budget is the stacked per-layer account of one kind of request.
type budget struct {
	Title   string       `json:"title"`
	TotalMS float64      `json:"total_ms"`
	Lines   []budgetLine `json:"lines"`
}

func (b budget) String() string {
	out := fmt.Sprintf("  stacked budget — %s (total %.3f ms)\n", b.Title, b.TotalMS)
	sum := 0.0
	for _, l := range b.Lines {
		share := 0.0
		if b.TotalMS > 0 {
			share = 100 * l.SelfMS / b.TotalMS
		}
		out += fmt.Sprintf("    %-28s %10.3f ms %6.1f %% %12.1f KiB\n", l.Layer, l.SelfMS, share, l.AllocKB)
		sum += l.SelfMS
	}
	out += fmt.Sprintf("    %-28s %10.3f ms\n", "sum", sum)
	return out
}
