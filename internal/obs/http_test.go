package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tdb/internal/metrics"
	"tdb/internal/obs/prof"
)

// TestMetricsDeterministicOrder asserts two properties of the /metrics
// exposition: consecutive scrapes of an unchanged registry are
// byte-identical (families render name-sorted, buckets bound-sorted),
// and the expvar snapshot carries the same cumulative bucket counts as
// the Prometheus text, so the two exposition paths cannot drift.
func TestMetricsDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tdb_z_total", "last family").Add(1)
	reg.Counter("tdb_a_total", "first family").Add(2)
	h := reg.Histogram("tdb_mid_hist", "a histogram", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000)

	var one, two strings.Builder
	if err := reg.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("consecutive scrapes differ:\n%s\n---\n%s", one.String(), two.String())
	}
	if strings.Index(one.String(), "tdb_a_total") > strings.Index(one.String(), "tdb_z_total") {
		t.Errorf("families not name-sorted:\n%s", one.String())
	}

	snap := reg.Snapshot()
	buckets, ok := snap["tdb_mid_hist_bucket"].(map[string]uint64)
	if !ok {
		t.Fatalf("snapshot has no bucket map: %T", snap["tdb_mid_hist_bucket"])
	}
	for le, want := range map[string]uint64{"1": 1, "10": 2, "100": 2, "+Inf": 3} {
		if buckets[le] != want {
			t.Errorf("snapshot bucket le=%s = %d, want %d", le, buckets[le], want)
		}
		promLine := "tdb_mid_hist_bucket{le=\"" + le + "\"} "
		if !strings.Contains(one.String(), promLine) {
			t.Errorf("prometheus text missing %q", promLine)
			continue
		}
		rest := one.String()[strings.Index(one.String(), promLine)+len(promLine):]
		if got := strings.Fields(rest)[0]; got != jsonUint(want) {
			t.Errorf("prometheus le=%s = %s, snapshot %d: the expositions drifted", le, got, want)
		}
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestConcurrentScrapeDuringTracing scrapes /metrics and /debug/vars
// while queries trace and publish probes — the race detector audits the
// registry, tracer and event log under concurrent exposition.
func TestConcurrentScrapeDuringTracing(t *testing.T) {
	reg := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	scrape := func(path string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return // server racing shutdown; the detector has seen enough
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}

	events := NewEventLog(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				scrape("/metrics")
				scrape("/debug/vars")
			}
		}()
	}
	for i := 0; i < 50; i++ {
		tr := NewTracer()
		root := tr.BeginQuery("q")
		span := tr.Begin(root, "scan")
		var p metrics.Probe
		p.IncReadLeft()
		p.StateAdd(2)
		p.IncStateGrow()
		span.Finish(tr, Node{Probe: p, Algorithm: "heap-scan", OutRows: 1})
		root.Finish(tr, Node{})
		reg.PublishNode(&Node{Probe: p})
		events.Emit(EventSlowQuery, "q", map[string]string{"elapsed_ms": "1"})
	}
	wg.Wait()

	if got := reg.Counter(MetricOperatorStateGrows, "").Value(); got != 50 {
		t.Errorf("state-grows counter = %d, want 50", got)
	}
}

// TestProfFieldsRoundTripJSONL runs a profiled span over a real
// allocation burst and checks the resource-accounting fields survive the
// EXPLAIN ANALYZE JSON wire format.
func TestProfFieldsRoundTripJSONL(t *testing.T) {
	prof.SetEnabled(true)
	defer prof.SetEnabled(false)

	tr := NewTracer()
	root := tr.BeginQuery("select … go")
	root.ProfBegin()
	span := tr.Begin(root, "join")
	span.ProfBegin()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	var p metrics.Probe
	p.IncStateGrow()
	p.ObserveActive(7)
	span.Finish(tr, Node{Probe: p, Algorithm: "contain-join", OutRows: 1})
	root.Finish(tr, Node{})

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	var m struct {
		Profiled   bool  `json:"profiled"`
		Allocs     int64 `json:"allocs"`
		AllocBytes int64 `json:"alloc_bytes"`
		Probe      struct {
			StateGrows int64 `json:"state_grows"`
			ActivePeak int64 `json:"active_peak"`
		} `json:"probe"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatal(err)
	}
	if !m.Profiled {
		t.Fatal("join span not marked profiled")
	}
	if m.Allocs < 32 || m.AllocBytes < 32*1024 {
		t.Errorf("join span missed the allocation burst: allocs=%d bytes=%d", m.Allocs, m.AllocBytes)
	}
	if m.Probe.StateGrows != 1 || m.Probe.ActivePeak != 7 {
		t.Errorf("hot-loop counters did not round-trip: %+v", m.Probe)
	}

	// The root line reports the query inclusively, so the Tree header can
	// show whole-query totals.
	tree := tr.Tree()
	if !strings.Contains(tree, "allocs/op=") || !strings.Contains(tree, "B/op=") {
		t.Errorf("tree missing prof columns:\n%s", tree)
	}
	if !strings.Contains(tree, "grows=1 peak=7") {
		t.Errorf("tree missing hot-loop counters:\n%s", tree)
	}
}

// TestUnprofiledSpansOmitProfFields: without ProfBegin the wire form
// carries no prof keys at all (omitempty), so existing trace consumers
// see byte-compatible output.
func TestUnprofiledSpansOmitProfFields(t *testing.T) {
	tr := NewTracer()
	root := tr.BeginQuery("q")
	root.Finish(tr, Node{})
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"profiled"`, `"allocs"`, `"alloc_bytes"`, `"state_grows"`, `"active_peak"`} {
		if strings.Contains(b.String(), key) {
			t.Errorf("unprofiled span leaked %s: %s", key, b.String())
		}
	}
}
