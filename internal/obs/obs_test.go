package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tdb/internal/metrics"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "dup"); again != c {
		t.Fatalf("counter not shared by name")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
}

func TestNameFragmentAndUnregister(t *testing.T) {
	for in, want := range map[string]string{
		"default": "default", "Alpha-Team": "alpha_team", "s1.2.watch": "s1_2_watch", "": "",
	} {
		if got := NameFragment(in); got != want {
			t.Errorf("NameFragment(%q) = %q, want %q", in, got, want)
		}
	}
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(1)
	r.Unregister("a_total", "b", "never_registered")
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after Unregister = %v", snap)
	}
	if c := r.Counter("a_total", ""); c.Value() != 0 {
		t.Fatalf("re-registered counter = %d, want a fresh 0", c.Value())
	}
	var nilReg *Registry
	nilReg.Unregister("a_total")
}

func TestKindMismatchReturnsNil(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	if g := r.Gauge("m", ""); g != nil {
		t.Fatalf("gauge under counter name must be nil")
	}
	if h := r.Histogram("m", "", nil); h != nil {
		t.Fatalf("histogram under counter name must be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// le="1" catches 0.5 and 1 (boundary inclusive); cumulative counts follow.
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="100"} 5`,
		`lat_bucket{le="+Inf"} 6`,
		`lat_sum 1066.5`,
		`lat_count 6`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("shared_hist", "", []float64{1, 2, 4})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 5))
				if j%100 == 0 {
					_ = r.WritePrometheus(io.Discard)
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared_hist", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestStateSamplerBoundedAndEndsWithLast(t *testing.T) {
	s := NewStateSampler(8)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Observe(int64(i), int64(i%37))
	}
	got := s.Samples()
	if len(got) > 9 { // max retained + possibly the trailing observation
		t.Fatalf("retained %d samples, want <= 9", len(got))
	}
	if s.Seen() != n {
		t.Fatalf("seen = %d", s.Seen())
	}
	if got[0].Tick != 0 {
		t.Fatalf("first sample tick = %d, want 0", got[0].Tick)
	}
	last := got[len(got)-1]
	if last.Tick != n-1 || last.State != (n-1)%37 {
		t.Fatalf("last sample = %+v, want tick %d state %d", last, n-1, (n-1)%37)
	}
	// Ticks must be strictly increasing.
	for i := 1; i < len(got); i++ {
		if got[i].Tick <= got[i-1].Tick {
			t.Fatalf("ticks not increasing at %d: %+v", i, got)
		}
	}
}

func TestStateSamplerMaxState(t *testing.T) {
	s := NewStateSampler(4)
	peaks := []int64{1, 5, 3, 9, 2}
	for i, p := range peaks {
		s.Observe(int64(i), p)
	}
	if m := s.MaxState(); m < 2 || m > 9 {
		t.Fatalf("MaxState = %d out of observed range", m)
	}
	var nilS *StateSampler
	nilS.Observe(1, 1)
	if nilS.Samples() != nil || nilS.Seen() != 0 || nilS.MaxState() != 0 {
		t.Fatalf("nil sampler must be inert")
	}
}

func TestSampleJSON(t *testing.T) {
	b, err := json.Marshal([]Sample{{Tick: 3, State: 12}, {Tick: 40, State: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != "[[3,12],[40,-1]]" {
		t.Fatalf("sample json = %s", got)
	}
}

func TestTracerSpansAndJSONL(t *testing.T) {
	tr := NewTracer()
	var tick int64
	tr.clock = func() int64 { tick += 10; return tick }

	root := tr.BeginQuery("select … go")
	child := tr.Begin(root, "join F1xF2")
	grand := tr.Begin(child, "scan F1")

	sam := NewStateSampler(DefaultSamples)
	sam.Observe(0, 1)
	sam.Observe(1, 2)

	var p metrics.Probe
	p.IncReadLeft()
	p.IncReadLeft()
	p.IncEmitted(1)
	grand.Finish(tr, Node{Probe: p, Algorithm: "heap-scan", OutRows: 2, PagesRead: 1, Curve: sam.Samples()})
	child.Finish(tr, Node{Probe: p, Algorithm: "event-join", OutRows: 2, Notes: []string{"order verified"}})
	root.Finish(tr, Node{})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[1].ParentID != root.ID || spans[2].ParentID != child.ID {
		t.Fatalf("parentage wrong: %+v", spans)
	}
	if spans[0].QueryID != spans[2].QueryID {
		t.Fatalf("query ids differ")
	}

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines int
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not json: %v", lines, err)
		}
		if _, ok := m["probe"]; !ok {
			t.Fatalf("line %d missing probe: %s", lines, sc.Text())
		}
	}
	if lines != 3 {
		t.Fatalf("jsonl lines = %d, want 3", lines)
	}
	// The scan span's probe totals round-trip.
	var m struct {
		Probe struct {
			ReadLeft int64 `json:"read_left"`
			Emitted  int64 `json:"emitted"`
		} `json:"probe"`
		Curve [][2]int64 `json:"state_curve"`
	}
	scanLine := strings.Split(strings.TrimSpace(b.String()), "\n")[2]
	if err := json.Unmarshal([]byte(scanLine), &m); err != nil {
		t.Fatal(err)
	}
	if m.Probe.ReadLeft != 2 || m.Probe.Emitted != 1 {
		t.Fatalf("probe round-trip = %+v", m.Probe)
	}
	if len(m.Curve) != 2 || m.Curve[1] != [2]int64{1, 2} {
		t.Fatalf("curve round-trip = %v", m.Curve)
	}

	tree := tr.Tree()
	for _, want := range []string{"query #1", "join F1xF2", "[event-join]", "scan F1", "order verified", "└─"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}

	// Every line carries exactly the trace's keys: the always-present
	// ones, plus each omitempty one whose value is set. A root line, a
	// node line with every optional field set, a profiled line and a
	// failed line cover them all.
	kt := NewTracer()
	q := kt.BeginQuery("root")
	full := kt.Begin(q, "node")
	var fp metrics.Probe
	fp.IncStateGrow()
	fp.ObserveActive(3)
	full.Finish(kt, Node{Algorithm: "stream contain-join", Probe: fp, OutRows: 1,
		SortedRows: 4, SortRuns: 2, SortPages: 3, PagesRead: 5, Notes: []string{"spilled"},
		Curve: []Sample{{Tick: 0, State: 1}}})
	profiled := kt.Begin(q, "profiled")
	profiled.Finish(kt, Node{Profiled: true, Allocs: 2, AllocBytes: 64})
	failed := kt.Begin(q, "failed")
	failed.Fail(kt, Node{}, errors.New("boom"))
	q.Finish(kt, Node{Algorithm: "query"})

	with := func(base []string, extra ...string) []string {
		out := append(append([]string{}, base...), extra...)
		sort.Strings(out)
		return out
	}
	always := []string{"query", "span", "label", "start_ns", "dur_ns", "out_rows", "probe"}
	probeAlways := []string{"read_left", "read_right", "emitted", "comparisons", "gc_discarded",
		"passes", "state_hwm", "buffers", "workspace"}
	wantKeys := map[string][2][]string{ // label → line keys, probe keys
		"root": {with(always, "algorithm"), with(probeAlways)},
		"node": {with(always, "parent", "algorithm", "sorted_rows", "sort_runs", "sort_pages",
			"pages_read", "notes", "state_curve"), with(probeAlways, "state_grows", "active_peak")},
		"profiled": {with(always, "parent", "profiled", "allocs", "alloc_bytes"), with(probeAlways)},
		"failed":   {with(always, "parent", "error"), with(probeAlways)},
	}
	keysOf := func(m map[string]json.RawMessage) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var kb strings.Builder
	if err := kt.WriteJSONL(&kb); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(kb.String()), "\n") {
		var m, probe map[string]json.RawMessage
		var label string
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line not json: %v\n%s", err, line)
		}
		if err := json.Unmarshal(m["label"], &label); err != nil {
			t.Fatalf("label: %v\n%s", err, line)
		}
		if err := json.Unmarshal(m["probe"], &probe); err != nil {
			t.Fatalf("probe: %v\n%s", err, line)
		}
		want, ok := wantKeys[label]
		if !ok {
			t.Fatalf("unexpected line %s", line)
		}
		seen++
		if got := keysOf(m); !reflect.DeepEqual(got, want[0]) {
			t.Errorf("%s line keys = %v, want %v", label, got, want[0])
		}
		if got := keysOf(probe); !reflect.DeepEqual(got, want[1]) {
			t.Errorf("%s probe keys = %v, want %v", label, got, want[1])
		}
	}
	if seen != len(wantKeys) {
		t.Errorf("checked %d lines, want %d:\n%s", seen, len(wantKeys), kb.String())
	}
}

// TestTreeRendersAccounting: a node line shows its own allocation window
// and hot-loop counters; the root line shows the query's inclusive totals,
// the sum of its spans' exclusive windows.
func TestTreeRendersAccounting(t *testing.T) {
	tr := NewTracer()
	root := tr.BeginQuery("q")
	join := tr.Begin(root, "join")
	var p metrics.Probe
	p.IncStateGrow()
	p.ObserveActive(7)
	join.Finish(tr, Node{Probe: p, Algorithm: "contain-join", OutRows: 1, Profiled: true, Allocs: 2, AllocBytes: 64})
	root.Finish(tr, Node{Algorithm: "query", Profiled: true, Allocs: 1, AllocBytes: 8})
	tree := tr.Tree()
	for _, want := range []string{"allocs=3 B=72)", "allocs/op=2 B/op=64", "grows=1 peak=7"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestTracerNilAndFail(t *testing.T) {
	var tr *Tracer
	s := tr.BeginQuery("q")
	if s != nil {
		t.Fatalf("nil tracer must hand out nil spans")
	}
	c := tr.Begin(s, "child")
	if c != nil {
		t.Fatalf("nil tracer Begin must be nil")
	}
	s.Finish(tr, Node{})
	s.Fail(tr, Node{}, errors.New("x"))
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	if tr.Tree() != "" || tr.Spans() != nil {
		t.Fatalf("nil tracer must render empty")
	}

	live := NewTracer()
	q := live.BeginQuery("q")
	n := live.Begin(q, "node")
	n.Fail(live, Node{}, errors.New("stream order violated"))
	n.Finish(live, Node{OutRows: 99}) // second finish ignored
	if n.Node.OutRows != 0 || n.Err != "stream order violated" {
		t.Fatalf("Fail then Finish: %+v", n)
	}
	q.Finish(live, Node{})
	if !strings.Contains(live.Tree(), "! stream order violated") {
		t.Fatalf("tree must show error:\n%s", live.Tree())
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tdb_test_total", "test counter").Add(3)
	reg.Histogram("tdb_test_hist", "test hist", []float64{1, 2}).Observe(1.5)

	srv, addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("metrics content-type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE tdb_test_total counter",
		"tdb_test_total 3",
		`tdb_test_hist_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, _ = get("/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not json: %v", err)
	}
	if _, ok := vars["tdb"]; !ok {
		t.Errorf("/debug/vars missing tdb snapshot: %s", body)
	}

	body, _ = get("/debug/pprof/")
	if !strings.Contains(body, "heap") {
		t.Errorf("pprof index missing heap profile:\n%s", body)
	}

	body, _ = get("/")
	if !strings.Contains(body, "/metrics") {
		t.Errorf("index page: %s", body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.0.0.1:99999", NewRegistry()); err == nil {
		t.Fatal("want error for bad address")
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("tdb_pages_read_total", "pages read").Add(2)
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP tdb_pages_read_total pages read
	// # TYPE tdb_pages_read_total counter
	// tdb_pages_read_total 2
}
