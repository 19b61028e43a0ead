package server

import (
	"context"
	"sync"
	"time"

	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/relation"
)

// Wire-resilience bounds. The replay ring is sized by the same
// minimal-history argument that bounds standing-query state: a resumable
// client is at most one transport failure behind the stream head, so the
// ring only has to cover the events that can be in flight across one
// disconnect window — a small constant — not the subscription's history.
const (
	defaultReplayRing = 256
	defaultDedupTTL   = 5 * time.Minute
	defaultDedupMax   = 4096
)

// subEvent is one delivered (or deliverable) delta event: its stream
// sequence number and its encoded SubscribeDeltas payload, the bytes a
// replay sends again. Events enter the ring before they touch the wire,
// so a severed write is always replayable.
type subEvent struct {
	seq  int64
	data []byte
}

// subState is one standing subscription's server-side resume state. It
// outlives the HTTP stream that created it: a disconnect leaves the
// standing query registered and the ring intact, and a resume request
// re-attaches. It dies with its session (close, idle expiry, restart)
// or on a fatal stream error.
type subState struct {
	token   string // resume token clients present; also the live registration name
	sessID  string
	sq      *live.StandingQuery
	mode    string
	explain string
	cols    []Column
	poll    time.Duration

	mu      sync.Mutex
	nextSeq int64 // seq the next event will be assigned (starts at 1)
	minSeq  int64 // seq of the oldest event still in the ring
	ring    []subEvent
	ringCap int
	kick    chan struct{} // closed to evict the currently attached stream
}

func newSubState(token, sessID string, sq *live.StandingQuery, ringCap int) *subState {
	return &subState{
		token:   token,
		sessID:  sessID,
		sq:      sq,
		nextSeq: 1,
		minSeq:  1,
		ringCap: ringCap,
	}
}

// appendEvent assigns the next sequence number, encodes the rows as that
// event's payload, records the event in the bounded ring (evicting the
// oldest beyond capacity), and returns it.
func (st *subState) appendEvent(rows []relation.Row) subEvent {
	st.mu.Lock()
	defer st.mu.Unlock()
	ev := subEvent{seq: st.nextSeq, data: SubscribeDeltas{Seq: st.nextSeq, Rows: rows}.AppendJSON(nil)}
	st.nextSeq++
	st.ring = append(st.ring, ev)
	if len(st.ring) > st.ringCap {
		st.ring = st.ring[1:]
	}
	if len(st.ring) > 0 {
		st.minSeq = st.ring[0].seq
	}
	return ev
}

// replaySince returns the retained events with seq > after, or a typed
// error when the ring has already evicted part of that range — a silent
// gap is never an option.
func (st *subState) replaySince(after int64) ([]subEvent, *Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if after < 0 {
		return nil, errf(CodeBadRequest, "resume after seq %d: sequence numbers start at 1", after)
	}
	if after >= st.nextSeq {
		return nil, errf(CodeBadRequest,
			"resume after seq %d, but the stream head is %d (client claims events the server never sent)",
			after, st.nextSeq-1)
	}
	if after+1 < st.minSeq {
		return nil, errf(CodeResumeHorizon,
			"resume after seq %d exceeds the replay horizon: the ring (cap %d) retains [%d, %d)",
			after, st.ringCap, st.minSeq, st.nextSeq)
	}
	var out []subEvent
	for _, ev := range st.ring {
		if ev.seq > after {
			out = append(out, ev)
		}
	}
	return out, nil
}

// attach installs a fresh kick channel for a newly attached stream and
// returns it. Any previously attached stream is kicked: its poll loop
// sees the closed channel and unwinds, so one subscription never has two
// writers.
func (st *subState) attach() chan struct{} {
	ch := make(chan struct{})
	st.mu.Lock()
	old := st.kick
	st.kick = ch
	st.mu.Unlock()
	if old != nil {
		close(old)
	}
	return ch
}

// lastSeq reports the newest assigned sequence number (0 before the
// first event).
func (st *subState) lastSeq() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextSeq - 1
}

// --- subscription registry ----------------------------------------------

// registerSub tracks a subscription's resume state under its token.
func (s *Server) registerSub(st *subState) {
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	s.subs[st.token] = st
}

// lookupSub resolves a resume token.
func (s *Server) lookupSub(token string) *subState {
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	return s.subs[token]
}

// dropSub removes a subscription: the resume token dies, any attached
// stream is kicked, and the standing query deregisters from the live
// manager. Safe to call twice.
func (s *Server) dropSub(token string) {
	s.subsMu.Lock()
	st := s.subs[token]
	delete(s.subs, token)
	s.subsMu.Unlock()
	if st == nil {
		return
	}
	st.attach() // kick whichever stream is attached; nobody reads the new channel
	s.mu.Lock()
	_ = s.live.Deregister(token)
	s.mu.Unlock()
}

// dropSessionSubs removes every subscription owned by a session — the
// cleanup edge for session close, idle expiry, and simulated restart.
func (s *Server) dropSessionSubs(sessID string) {
	s.subsMu.Lock()
	var tokens []string
	for token, st := range s.subs {
		if st.sessID == sessID {
			tokens = append(tokens, token)
		}
	}
	s.subsMu.Unlock()
	for _, token := range tokens {
		s.dropSub(token)
	}
}

// --- append dedup window ------------------------------------------------

// dedupEntry is one remembered append outcome: either the success
// response or the typed error the first application produced. Replaying
// the outcome (rather than just "seen") makes retries of partially
// failed appends deterministic: the retry reports the same result the
// original did, and never re-applies rows.
type dedupEntry struct {
	at   time.Time
	seq  uint64 // the store that wrote it; tells a live queue record from a stale one
	resp AppendResponse
	err  *Error
}

// dedupRecord is one store in the window's age queue. It is stale once
// its key is gone from the map or was stored again (the seqs differ).
type dedupRecord struct {
	key string
	seq uint64
}

// dedupClaim is one in-flight application of an idempotency key. A
// request that finds its key claimed waits on done and replays the
// owner's outcome; outcome is written before done closes and never
// after, and stays nil when the owner gave up or the window was reset.
type dedupClaim struct {
	key     string
	done    chan struct{}
	outcome *dedupEntry
}

// dedupWindow backs append idempotency keys: outcomes are remembered for
// a TTL under (tenant, relation, key) and bounded in count, oldest first.
// Every entry has one live record in q, and q is in age order because
// store stamps at and appends under mu, so eviction pops from the front
// and a store costs O(1) amortized, whatever the window's size.
type dedupWindow struct {
	mu     sync.Mutex
	m      map[string]dedupEntry
	q      []dedupRecord // q[head:] oldest first; may hold stale records
	head   int
	seq    uint64
	claims map[string]*dedupClaim
	ttl    time.Duration
	max    int
	now    func() time.Time
	hits   *obs.Counter
	waits  *obs.Counter
}

func newDedupWindow(ttl time.Duration, max int, reg *obs.Registry) *dedupWindow {
	return &dedupWindow{
		m:      map[string]dedupEntry{},
		claims: map[string]*dedupClaim{},
		ttl:    ttl,
		max:    max,
		now:    time.Now,
		hits:   reg.Counter("tdb_server_append_dedup_hits_total", "append retries answered from the idempotency window without re-applying rows"),
		waits:  reg.Counter("tdb_server_append_dedup_waits_total", "append retries that waited for an in-flight attempt under the same idempotency key"),
	}
}

// claim resolves a key before its rows are applied. It returns the
// remembered outcome to replay, or a claim that makes the caller the
// key's one applier: the caller then records its outcome with store and
// defers release, so a claim is settled on every path. A request that
// finds the key claimed waits for the owner's outcome, bounded by ctx.
func (d *dedupWindow) claim(ctx context.Context, key string) (*dedupEntry, *dedupClaim, *Error) {
	for {
		d.mu.Lock()
		if e, ok := d.m[key]; ok && d.now().Sub(e.at) <= d.ttl {
			d.mu.Unlock()
			d.hits.Inc()
			return &e, nil, nil
		}
		c := d.claims[key]
		if c == nil {
			c = &dedupClaim{key: key, done: make(chan struct{})}
			d.claims[key] = c
			d.mu.Unlock()
			return nil, c, nil
		}
		d.mu.Unlock()
		d.waits.Inc()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, nil, errf(CodeCanceled, "append canceled while the same idempotency key was in flight: %v", ctx.Err())
		}
		if c.outcome != nil {
			d.hits.Inc()
			return c.outcome, nil, nil
		}
		// The owner gave up without an outcome: claim the key afresh.
	}
}

// release drops a claim its owner did not settle with store (it
// panicked before recording an outcome), waking its waiters so one of
// them applies the rows. It is a no-op for a settled claim.
func (d *dedupWindow) release(c *dedupClaim) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.claims[c.key] == c {
		delete(d.claims, c.key)
		close(c.done)
	}
}

// store remembers an outcome and settles the key's claim, if any. From
// the front of the age queue it first pops stale records, entries past
// the TTL and — while the window is at capacity — the oldest live entry.
func (d *dedupWindow) store(key string, resp AppendResponse, err *Error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	delete(d.m, key) // a key stored again leaves its old record stale
	for ; d.head < len(d.q); d.head++ {
		r := d.q[d.head]
		if old, ok := d.m[r.key]; ok && old.seq == r.seq {
			if now.Sub(old.at) <= d.ttl && len(d.m) < d.max {
				break
			}
			delete(d.m, r.key)
		}
		d.q[d.head] = dedupRecord{}
	}
	d.seq++
	e := dedupEntry{at: now, seq: d.seq, resp: resp, err: err}
	d.m[key] = e
	d.q = append(d.q, dedupRecord{key: key, seq: d.seq})
	if held := len(d.q) - d.head; 2*d.head > len(d.q) || held > 2*d.max {
		d.compact()
	}
	if c := d.claims[key]; c != nil {
		delete(d.claims, key)
		out := e
		c.outcome = &out
		close(c.done)
	}
}

// compact rewrites the queue with its live records only, at the front
// of its array. It runs once the popped head passes half the slice or
// stale records from re-stored keys pile up past 2·max; either way at
// least as many records were pushed since the last compaction as it
// copies, so its cost is amortized into store's O(1).
func (d *dedupWindow) compact() {
	live := d.q[:0]
	for _, r := range d.q[d.head:] {
		if e, ok := d.m[r.key]; ok && e.seq == r.seq {
			live = append(live, r)
		}
	}
	clear(d.q[len(live):])
	d.q, d.head = live, 0
}

// reset drops every remembered outcome (simulated restart) and wakes
// every waiter: each then claims its key afresh, as a re-sent append
// after a real restart lands again.
func (d *dedupWindow) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m = map[string]dedupEntry{}
	d.q, d.head = nil, 0
	for key, c := range d.claims {
		delete(d.claims, key)
		close(c.done)
	}
}
