package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the engine and the live subsystem. Detail maps
// carry the kind-specific fields; encoding/json sorts map keys, so the
// wire form of an event is deterministic.
const (
	EventSlowQuery   = "slow-query"
	EventGovernor    = "governor-fallback"
	EventBreakerTrip = "breaker-trip"
)

// Event is one structured journal entry.
type Event struct {
	Seq    int64             `json:"seq"`
	TimeNS int64             `json:"time_ns"`
	Kind   string            `json:"kind"`
	Query  string            `json:"query,omitempty"`
	Detail map[string]string `json:"detail,omitempty"`
}

// EventLog is a bounded in-memory journal of operational events —
// slow queries, governor fallbacks, breaker trips — with an optional
// streaming JSONL sink. The newest events win: when the ring is full the
// oldest entry is dropped and Dropped counts the loss. All methods are nil-receiver safe, so
// un-instrumented paths pay only a branch.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest entry
	n       int // entries currently held
	seq     int64
	dropped int64
	sink    io.Writer
	clock   func() int64
}

// DefaultEventCap bounds the journal when NewEventLog is given a
// non-positive capacity.
const DefaultEventCap = 256

// NewEventLog returns an empty journal holding at most capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventLog{
		ring:  make([]Event, capacity),
		clock: func() int64 { return time.Now().UnixNano() },
	}
}

// SetSink streams every subsequent event to w as one JSON line, in
// addition to buffering it. Pass nil to stop streaming. Writes happen
// under the log's lock, serializing lines from concurrent emitters.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = w
}

// Emit appends an event. The detail map is retained, not copied; callers
// hand over ownership.
func (l *EventLog) Emit(kind, query string, detail map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e := Event{Seq: l.seq, TimeNS: l.clock(), Kind: kind, Query: query, Detail: detail}
	if l.n == len(l.ring) {
		l.start = (l.start + 1) % len(l.ring)
		l.n--
		l.dropped++
	}
	l.ring[(l.start+l.n)%len(l.ring)] = e
	l.n++
	if l.sink != nil {
		b, err := json.Marshal(e)
		if err == nil {
			b = append(b, '\n')
			_, _ = l.sink.Write(b)
		}
	}
}

// Events returns the buffered events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(l.start+i)%len(l.ring)])
	}
	return out
}

// Len returns the number of buffered events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the number of events ever emitted.
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns the number of events the ring has evicted.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// WriteJSONL writes the buffered events, oldest first, one JSON object
// per line.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
