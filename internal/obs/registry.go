package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// buckets are upper bounds, counts are cumulative at exposition). A nil
// *Histogram is a no-op sink.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds, excluding +Inf
	counts  []uint64  // per-bucket (non-cumulative) counts; len = len(bounds)+1
	sum     float64
	samples uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.samples++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Buckets returns the histogram's upper bounds (excluding +Inf) and the
// cumulative count at each bound plus the +Inf total — the exact values
// the Prometheus exposition prints.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds := append([]float64{}, h.bounds...)
	cums := make([]uint64, len(h.counts))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		cums[i] = cum
	}
	return bounds, cums
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor — the usual decade/octave histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered instrument with its exposition metadata.
type metric struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of instruments. Instruments are created
// on first use and shared by name thereafter; all methods are safe for
// concurrent use and a nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// Counter returns the counter registered under name, creating it with the
// given help text on first use. Returns nil (a no-op counter) on a nil
// registry or if name is registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, "counter")
	if m == nil {
		return nil
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, "gauge")
	if m == nil {
		return nil
	}
	return m.g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (buckets are sorted and
// deduplicated; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != "histogram" {
			return nil
		}
		return m.h
	}
	bounds := append([]float64{}, buckets...)
	sort.Float64s(bounds)
	bounds = dedupFloats(bounds)
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.metrics[name] = &metric{name: name, help: help, kind: "histogram", h: h}
	return h
}

// Unregister removes the named instruments, of whatever kind; a later
// lookup of one of those names makes it anew. Unknown names are ignored.
func (r *Registry) Unregister(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.metrics, n)
	}
}

// NameFragment maps a name chosen outside the registry (a tenant, a live
// table, a standing query) to a fragment that is legal anywhere in a
// Prometheus metric name: lower case, every character but a-z and 0-9
// replaced by '_'. The registry has no labels, so such names are spliced
// into series names (tdb_server_tenant_<name>_queries_total,
// tdb_live_backlog_<query>, …); two names that map to the same fragment
// share their series.
func NameFragment(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// lookup finds or creates a scalar instrument under the registry lock.
func (r *Registry) lookup(name, help, kind string) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			return nil
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case "counter":
		m.c = &Counter{}
	case "gauge":
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case "gauge":
			fmt.Fprintf(&b, "%s %d\n", m.name, m.g.Value())
		case "histogram":
			m.h.write(&b, m.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders the histogram's cumulative buckets, sum and count.
func (h *Histogram) write(b *strings.Builder, name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(h.sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", name, h.samples)
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns a plain name → value map of every instrument for
// expvar exposition. Histograms appear as name_sum, name_count and a
// name_bucket map keyed by the same le bound strings — with the same
// cumulative counts — that the Prometheus exposition prints, so the two
// renderings of one snapshot carry identical values. The JSON encoding
// of the map is deterministic: encoding/json sorts object keys.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		switch m.kind {
		case "counter":
			out[name] = m.c.Value()
		case "gauge":
			out[name] = m.g.Value()
		case "histogram":
			out[name+"_sum"] = m.h.Sum()
			out[name+"_count"] = m.h.Count()
			bounds, cums := m.h.Buckets()
			buckets := make(map[string]uint64, len(cums))
			for i, bound := range bounds {
				buckets[formatBound(bound)] = cums[i]
			}
			buckets["+Inf"] = cums[len(cums)-1]
			out[name+"_bucket"] = buckets
		}
	}
	return out
}
