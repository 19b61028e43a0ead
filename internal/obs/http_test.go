package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tdb/internal/metrics"
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

// TestUnprofiledSpansOmitProfFields: without a measured window the wire form
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
