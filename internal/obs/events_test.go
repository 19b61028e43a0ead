package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"tdb/internal/metrics"
)

func TestEventLogRingAndDropped(t *testing.T) {
	l := NewEventLog(3)
	l.clock = func() int64 { return 42 }
	for i := 0; i < 5; i++ {
		l.Emit(EventSlowQuery, "q", map[string]string{"i": string(rune('0' + i))})
	}
	if l.Len() != 3 || l.Total() != 5 || l.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d, want 3/5/2", l.Len(), l.Total(), l.Dropped())
	}
	evs := l.Events()
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("ring kept wrong window: %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("events out of order: %+v", evs)
		}
	}
}

func TestEventLogSinkStreamsJSONL(t *testing.T) {
	l := NewEventLog(4)
	l.clock = func() int64 { return 7 }
	var sink strings.Builder
	l.SetSink(&sink)
	l.Emit(EventGovernor, "join F1xF2", map[string]string{"workspace": "900", "ceiling": "512"})
	l.Emit(EventBreakerTrip, "Hot", nil)

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != EventGovernor || e.Query != "join F1xF2" || e.Detail["ceiling"] != "512" || e.TimeNS != 7 {
		t.Errorf("streamed event mangled: %+v", e)
	}

	// The buffer still holds both; WriteJSONL replays them.
	var replay strings.Builder
	if err := l.WriteJSONL(&replay); err != nil {
		t.Fatal(err)
	}
	if replay.String() != sink.String() {
		t.Errorf("replay differs from stream:\n%s\n---\n%s", replay.String(), sink.String())
	}

	l.SetSink(nil)
	l.Emit(EventBreakerTrip, "Hot", nil)
	if strings.Count(sink.String(), "\n") != 2 {
		t.Error("emit after SetSink(nil) still streamed")
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(EventSlowQuery, "q", nil)
	l.SetSink(&strings.Builder{})
	if l.Events() != nil || l.Len() != 0 || l.Total() != 0 || l.Dropped() != 0 {
		t.Error("nil log not inert")
	}
	if err := l.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

func TestPublishProbeSingleExportPath(t *testing.T) {
	reg := NewRegistry()
	var p metrics.Probe
	p.SetBuffers(2)
	p.StateAdd(30)
	p.IncComparisons(100)
	p.StateRemove(10)
	p.IncStateGrow()
	p.IncStateGrow()
	reg.PublishProbe(&p)

	if got := reg.Counter(MetricOperatorComparisons, "").Value(); got != 100 {
		t.Errorf("comparisons = %d, want 100", got)
	}
	if got := reg.Counter(MetricOperatorGCDiscarded, "").Value(); got != 10 {
		t.Errorf("gc-discarded = %d, want 10", got)
	}
	if got := reg.Counter(MetricOperatorStateGrows, "").Value(); got != 2 {
		t.Errorf("state-grows = %d, want 2", got)
	}
	h := reg.Histogram(MetricOperatorWorkspace, "", WorkspaceBuckets())
	if h.Count() != 1 || h.Sum() != 32 {
		t.Errorf("workspace histogram count=%d sum=%v, want one observation of 32", h.Count(), h.Sum())
	}

	// Nil registry and nil probe are inert.
	var nilReg *Registry
	nilReg.PublishProbe(&p)
	reg.PublishProbe(nil)
	if got := reg.Counter(MetricOperatorComparisons, "").Value(); got != 100 {
		t.Errorf("nil publish mutated the registry: %d", got)
	}
}
