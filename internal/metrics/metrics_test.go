package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var p *Probe
	p.IncReadLeft()
	p.IncReadRight()
	p.IncEmitted(3)
	p.IncComparisons(5)
	p.IncPasses()
	p.SetBuffers(2)
	p.StateAdd(4)
	p.StateRemove(0)
	if p.StateNow() != 0 || p.Workspace() != 0 || p.TuplesRead() != 0 {
		t.Error("nil probe must report zeros")
	}
	if p.String() != "probe(nil)" {
		t.Errorf("String = %q", p.String())
	}
}

// TestNilSafetyExhaustive enumerates the pointer method set by
// reflection and calls every exported method on a nil receiver with
// zero-valued arguments, so a method added without the nil guard fails
// this test even if TestNilSafety's hand-written list lags behind.
func TestNilSafetyExhaustive(t *testing.T) {
	typ := reflect.TypeOf((*Probe)(nil))
	nilProbe := reflect.Zero(typ)
	if typ.NumMethod() == 0 {
		t.Fatal("no exported methods on *Probe")
	}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		args := []reflect.Value{nilProbe}
		for a := 1; a < m.Func.Type().NumIn(); a++ {
			args = append(args, reflect.Zero(m.Func.Type().In(a)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Probe)(nil).%s panicked: %v", m.Name, r)
				}
			}()
			m.Func.Call(args)
		}()
	}
}

func TestAccounting(t *testing.T) {
	p := &Probe{}
	p.SetBuffers(2)
	p.IncReadLeft()
	p.IncReadLeft()
	p.IncReadRight()
	p.IncEmitted(7)
	p.IncComparisons(11)
	p.IncPasses()

	p.StateAdd(3)
	p.StateAdd(2)
	p.StateRemove(4)
	p.StateAdd(1)

	if p.StateNow() != 2 {
		t.Errorf("StateNow = %d, want 2", p.StateNow())
	}
	if p.StateHighWater != 5 {
		t.Errorf("StateHighWater = %d, want 5", p.StateHighWater)
	}
	if p.Workspace() != 7 {
		t.Errorf("Workspace = %d, want 7", p.Workspace())
	}
	if p.GCDiscarded != 4 {
		t.Errorf("GCDiscarded = %d, want 4", p.GCDiscarded)
	}
	if p.TuplesRead() != 3 {
		t.Errorf("TuplesRead = %d, want 3", p.TuplesRead())
	}
	if p.Emitted != 7 || p.Comparisons != 11 || p.Passes != 1 {
		t.Error("simple counters wrong")
	}

	s := p.String()
	for _, frag := range []string{"read=2+1", "emitted=7", "state-hwm=5", "workspace=7"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}

func TestNegativeStatePanics(t *testing.T) {
	p := &Probe{}
	p.StateAdd(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative state")
		}
	}()
	p.StateRemove(2)
}

func TestMerge(t *testing.T) {
	var a, b Probe
	a.IncReadLeft()
	a.IncEmitted(2)
	a.StateAdd(5) // hwm 5
	a.SetBuffers(2)
	b.IncReadRight()
	b.IncComparisons(7)
	b.IncPasses()
	b.StateAdd(3) // hwm 3
	b.SetBuffers(4)
	b.StateRemove(3)

	a.Merge(&b)
	if a.ReadLeft != 1 || a.ReadRight != 1 || a.Emitted != 2 || a.Comparisons != 7 {
		t.Errorf("additive counters wrong after merge: %s", a.String())
	}
	if a.GCDiscarded != 3 || a.Passes != 1 {
		t.Errorf("gc/passes wrong after merge: %s", a.String())
	}
	if a.StateHighWater != 5 || a.Buffers != 4 {
		t.Errorf("workspace marks must combine by max: hwm=%d buffers=%d",
			a.StateHighWater, a.Buffers)
	}

	// Nil receiver and nil argument are both inert.
	var nilP *Probe
	nilP.Merge(&b)
	before := a
	a.Merge(nil)
	if a != before {
		t.Error("Merge(nil) must not change the probe")
	}
}

// The JSON encoding carries every exported total under its tag plus the
// computed workspace, the two hot-loop counters only when nonzero, and
// never the live state level.
func TestProbeJSON(t *testing.T) {
	p := &Probe{ReadLeft: 1, ReadRight: 2, Emitted: 3, Comparisons: 4, Passes: 1}
	p.SetBuffers(2)
	p.StateAdd(5)
	p.StateRemove(2)
	decode := func(p *Probe) map[string]int64 {
		t.Helper()
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]int64
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("%v: %s", err, b)
		}
		return m
	}
	want := map[string]int64{
		"read_left": 1, "read_right": 2, "emitted": 3, "comparisons": 4,
		"gc_discarded": 2, "passes": 1, "state_hwm": 5, "buffers": 2, "workspace": 7,
	}
	if got := decode(p); !reflect.DeepEqual(got, want) {
		t.Errorf("encoding = %v, want %v", got, want)
	}
	p.IncStateGrow()
	p.ObserveActive(6)
	want["state_grows"], want["active_peak"] = 1, 6
	if got := decode(p); !reflect.DeepEqual(got, want) {
		t.Errorf("encoding = %v, want %v", got, want)
	}
	if b, err := json.Marshal((*Probe)(nil)); err != nil || string(b) != "null" {
		t.Errorf("nil probe encodes as %s, %v", b, err)
	}
}
