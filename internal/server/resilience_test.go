package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/fault"
	"tdb/internal/live"
)

// feedFirstBatch appends the canonical overlap fixture: alice × bob is
// the one overlapping pair, carol and dave advance both frontiers past
// it so the stream operator emits — delta seq 1 is [[alice]].
func feedFirstBatch(t *testing.T, base string) {
	t.Helper()
	for _, app := range []AppendRequest{
		{Relation: "F", Rows: wireRows([]any{"alice", "Assistant", 1, 10}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"bob", "Full", 2, 8}), Flush: true},
		{Relation: "F", Rows: wireRows([]any{"carol", "Full", 20, 25}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"dave", "Full", 21, 26}), Flush: true},
	} {
		if we := post(t, base, "append", app, nil); we != nil {
			t.Fatalf("append %s: %s: %s", app.Relation, we.Code, we.Message)
		}
	}
}

// feedSecondBatch appends iris and jack to advance both frontiers past
// the pending carol × dave pair. Exactly one pair releases, and only
// when jack — the lone G-frontier advance — lands last, so the second
// delta event is always seq 2 with the single carol row, no matter how
// the poll ticks interleave with the operator's feed.
func feedSecondBatch(t *testing.T, base string) {
	t.Helper()
	for _, app := range []AppendRequest{
		{Relation: "F", Rows: wireRows([]any{"iris", "Full", 60, 65}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"jack", "Full", 61, 66}), Flush: true},
	} {
		if we := post(t, base, "append", app, nil); we != nil {
			t.Fatalf("append %s: %s: %s", app.Relation, we.Code, we.Message)
		}
	}
}

// subscribeMeta opens a subscribe stream and returns its reader, meta,
// and canceler.
func subscribeWithMeta(t *testing.T, ts *httptest.Server, req SubscribeRequest) (*bufio.Reader, SubscribeMeta, context.CancelFunc) {
	t.Helper()
	r, cancel := startSubscribe(t, ts, req)
	ev, err := readEvent(r)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	if ev.name != "meta" {
		t.Fatalf("first event %q, want meta", ev.name)
	}
	var meta SubscribeMeta
	if err := json.Unmarshal(ev.data, &meta); err != nil {
		t.Fatalf("decode meta: %v", err)
	}
	return r, meta, cancel
}

// wireDeltas is a "deltas" event payload as a client decodes it.
type wireDeltas struct {
	Seq  int64   `json:"seq"`
	Rows [][]any `json:"rows"`
}

// readDeltas reads the next event and requires it to be a deltas event.
func readDeltas(t *testing.T, r *bufio.Reader) (wireDeltas, []byte) {
	t.Helper()
	ev, err := readEvent(r)
	if err != nil {
		t.Fatalf("read deltas: %v", err)
	}
	if ev.name != "deltas" {
		t.Fatalf("event %q (%s), want deltas", ev.name, ev.data)
	}
	var d wireDeltas
	if err := json.Unmarshal(ev.data, &d); err != nil {
		t.Fatal(err)
	}
	return d, ev.data
}

// TestChaosSeverThenResumeByteIdentical is the exactly-once tentpole
// proof: a stream severed before delivery (server/subscribe-deliver)
// resumes from seq 0 and the spliced delta stream is byte-identical to
// an unsevered control run over the same appends.
func TestChaosSeverThenResumeByteIdentical(t *testing.T) {
	// Control: no faults, collect the two delta event payloads.
	var control [][]byte
	{
		_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
		sid := openSession(t, ts.URL, "")
		r, _, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
		feedFirstBatch(t, ts.URL)
		_, raw1 := readDeltas(t, r)
		feedSecondBatch(t, ts.URL)
		_, raw2 := readDeltas(t, r)
		control = append(control, raw1, raw2)
	}

	// Chaos: the first delivery severs pre-wire; the ring keeps it.
	s, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, meta, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if meta.Resume == "" || meta.ReplayCap <= 0 {
		t.Fatalf("meta lacks resume surface: %+v", meta)
	}
	if err := fault.Arm("server/subscribe-deliver=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	feedFirstBatch(t, ts.URL)
	if ev, err := readEvent(r); err == nil {
		t.Fatalf("stream delivered %+v past the armed delivery sever", ev)
	}

	// Resume from seq 0: the severed event replays, nothing is lost.
	r2, meta2, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: 0})
	if meta2.Resume != meta.Resume {
		t.Errorf("resume token changed across reconnect: %q -> %q", meta.Resume, meta2.Resume)
	}
	d1, raw1 := readDeltas(t, r2)
	feedSecondBatch(t, ts.URL)
	d2, raw2 := readDeltas(t, r2)
	if d1.Seq != 1 || d2.Seq != 2 {
		t.Fatalf("resumed seqs %d,%d want 1,2", d1.Seq, d2.Seq)
	}
	if !bytes.Equal(raw1, control[0]) || !bytes.Equal(raw2, control[1]) {
		t.Errorf("resumed stream diverged from unsevered control:\n got %s | %s\nwant %s | %s", raw1, raw2, control[0], control[1])
	}

	// The replay ring's head aligns with the standing query's own batch
	// count — the wire layer invented no sequence numbers.
	if err := s.WithLive(func(m *live.Manager) error {
		for _, q := range m.Queries() {
			if q.Batches() != 2 {
				return fmt.Errorf("standing query emitted %d batches, stream head is 2", q.Batches())
			}
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// TestChaosConnSeverNoDuplicate: a stream severed after delivery
// (server/conn-sever) resumes from the delivered seq and replays
// nothing — the zero-duplication edge.
func TestChaosConnSeverNoDuplicate(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, meta, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if err := fault.Arm("server/conn-sever=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	feedFirstBatch(t, ts.URL)
	d1, _ := readDeltas(t, r)
	if d1.Seq != 1 {
		t.Fatalf("first delta seq %d, want 1", d1.Seq)
	}
	if ev, err := readEvent(r); err == nil {
		t.Fatalf("stream stayed open past the armed post-delivery sever: %+v", ev)
	}

	r2, _, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: d1.Seq})
	feedSecondBatch(t, ts.URL)
	d2, _ := readDeltas(t, r2)
	if d2.Seq != 2 {
		t.Fatalf("post-resume delta seq %d, want 2 — seq 1 must not replay", d2.Seq)
	}
	for _, row := range d2.Rows {
		if row[0] == "alice" {
			t.Errorf("post-resume delta replayed alice: %+v", d2)
		}
	}
}

// TestChaosResumeGapTyped: the armed resume-gap failpoint surfaces as
// the typed resume_horizon error, never a silently gapped stream.
func TestChaosResumeGapTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	_, meta, cancel := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	cancel()
	if err := fault.Arm("server/resume-gap=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	we := post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid, Resume: meta.Resume}, nil)
	if we == nil || we.Code != CodeResumeHorizon {
		t.Errorf("armed resume gap: %+v, want %s", we, CodeResumeHorizon)
	}
}

// TestResumeHorizonWhenRingEvicted: with a one-slot replay ring, a
// resume behind the retained window is a typed error while a resume at
// the window's edge replays exactly the retained event.
func TestResumeHorizonWhenRingEvicted(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond, ReplayRing: 1})
	sid := openSession(t, ts.URL, "")
	r, meta, cancel := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if meta.ReplayCap != 1 {
		t.Fatalf("replay cap %d, want 1", meta.ReplayCap)
	}
	feedFirstBatch(t, ts.URL)
	readDeltas(t, r)
	feedSecondBatch(t, ts.URL)
	readDeltas(t, r)
	cancel()

	// Seq 1 has been evicted: resuming after 0 would need it.
	we := post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: 0}, nil)
	if we == nil || we.Code != CodeResumeHorizon {
		t.Fatalf("resume past horizon: %+v, want %s", we, CodeResumeHorizon)
	}
	// Seq 2 is retained: resuming after 1 replays it.
	r2, _, _ := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: 1})
	d, _ := readDeltas(t, r2)
	if d.Seq != 2 || len(d.Rows) == 0 {
		t.Errorf("edge-of-ring resume delta %+v, want the retained seq 2", d)
	}
	// Claiming events the server never sent is a bad request, not a
	// horizon problem.
	we = post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: 99}, nil)
	if we == nil || we.Code != CodeBadRequest {
		t.Errorf("resume past head: %+v, want %s", we, CodeBadRequest)
	}
}

// TestChaosDupAppendDedup: an append whose response severs after the
// rows applied (server/dup-append) is retried under the same
// idempotency key; the dedup window replays the outcome without
// re-applying rows, and the hit metric records it.
func TestChaosDupAppendDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t)})
	if err := fault.Arm("server/dup-append=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	app := AppendRequest{Relation: "F", Rows: wireRows([]any{"zoe", "Full", 1, 5}), Flush: true, IdemKey: "k-dup-1"}
	body, _ := json.Marshal(app)
	if _, err := http.Post(ts.URL+"/"+Protocol+"/append", "application/json", bytes.NewReader(body)); err == nil {
		t.Fatal("armed dup-append fault did not sever the response")
	}
	// Retry with the same key: replayed outcome, no second application.
	var resp AppendResponse
	if we := post(t, ts.URL, "append", app, &resp); we != nil {
		t.Fatalf("retried append: %s: %s", we.Code, we.Message)
	}
	if !resp.Deduped || resp.Appended != 1 {
		t.Errorf("retried append %+v, want deduped replay of appended=1", resp)
	}
	if hits := scrapeServerCounter(t, ts.URL, "tdb_server_append_dedup_hits_total"); hits != 1 {
		t.Errorf("dedup hits %d, want 1", hits)
	}
	// A fresh key with the same rows applies normally (watermark
	// semantics aside, the window keys on the idempotency key alone).
	var resp2 AppendResponse
	app2 := AppendRequest{Relation: "F", Rows: wireRows([]any{"yan", "Full", 6, 9}), Flush: true, IdemKey: "k-dup-2"}
	if we := post(t, ts.URL, "append", app2, &resp2); we != nil {
		t.Fatalf("fresh-key append: %s: %s", we.Code, we.Message)
	}
	if resp2.Deduped {
		t.Error("fresh key reported deduped")
	}
}

// TestRetryInFlightAppendAppliesOnce: a retry that arrives while its
// first attempt still waits for the catalog lock (the connection dropped
// mid-request and the driver re-sent it) waits on the attempt's claim
// and replays its outcome, so the rows land once.
func TestRetryInFlightAppendAppliesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: liveDB(t)})
	rows := make([][]any, 16)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("r%02d", i), "Full", 10, 20}
	}
	body, err := json.Marshal(AppendRequest{Relation: "F", Rows: wireRows(rows...), IdemKey: "k-inflight"})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the exclusive catalog lock: the first attempt claims its key,
	// then stalls before applying.
	locked, unlock := make(chan struct{}), make(chan struct{})
	go func() {
		_ = s.WithLive(func(*live.Manager) error {
			close(locked)
			<-unlock
			return nil
		})
	}()
	<-locked
	var unlockOnce sync.Once
	release := func() { unlockOnce.Do(func() { close(unlock) }) }
	defer release()

	var wg sync.WaitGroup
	resps := make([]AppendResponse, 2)
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/"+Protocol+"/append", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("attempt %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("attempt %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&resps[i]); err != nil {
				t.Errorf("attempt %d: decode: %v", i, err)
			}
		}()
	}
	send(0)
	waitFor(t, func() bool {
		s.dedup.mu.Lock()
		defer s.dedup.mu.Unlock()
		return len(s.dedup.claims) == 1
	})
	send(1)
	// The retry finds the key claimed and waits. The wait is bounded so
	// that a server whose retry queues on the catalog lock instead still
	// reaches the row count below.
	for deadline := time.Now().Add(2 * time.Second); s.dedup.waits.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	if we := post(t, ts.URL, "append", AppendRequest{Relation: "F", Flush: true}, nil); we != nil {
		t.Fatalf("flush: %s: %s", we.Code, we.Message)
	}
	var n int
	_ = s.WithLive(func(*live.Manager) error {
		rel, err := s.DB().Relation("F")
		if err != nil {
			return err
		}
		n = len(rel.Rows)
		return nil
	})
	if n != 16 {
		t.Errorf("table gained %d rows, want 16 (applied once)", n)
	}
	deduped := 0
	for i, r := range resps {
		if r.Appended != 16 {
			t.Errorf("attempt %d reported appended=%d, want 16", i, r.Appended)
		}
		if r.Deduped {
			deduped++
		}
	}
	if deduped != 1 {
		t.Errorf("%d responses deduped, want exactly 1", deduped)
	}
}

// TestChaosRestartLosesResumeState: a simulated restart (server/restart)
// wipes sessions, subscriptions, and the dedup window — the client's
// resume attempt gets the typed unknown_resume, its session the typed
// unknown_session, never a silent new stream.
func TestChaosRestartLosesResumeState(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	_, meta, cancel := subscribeWithMeta(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	cancel()
	if err := fault.Arm("server/restart=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	// The restart fires in the gate of this very request, which then
	// finds its session gone.
	we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: facultyQuery}, nil)
	if we == nil || we.Code != CodeUnknownSession {
		t.Fatalf("query across restart: %+v, want %s", we, CodeUnknownSession)
	}
	sid2 := openSession(t, ts.URL, "")
	we = post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid2, Resume: meta.Resume}, nil)
	if we == nil || we.Code != CodeUnknownResume {
		t.Errorf("resume across restart: %+v, want %s", we, CodeUnknownResume)
	}
}

// TestChaosSessionExpiryRace: queries racing the idle-expiry sweeper
// always fail with a typed session error — never a nil-catalog panic
// surfacing as a 500.
func TestChaosSessionExpiryRace(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTimeout: 5 * time.Millisecond})
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var open SessionOpenResponse
				body, _ := json.Marshal(SessionOpenRequest{})
				resp, err := http.Post(ts.URL+"/"+Protocol+"/session", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				dec := json.NewDecoder(resp.Body)
				derr := dec.Decode(&open)
				resp.Body.Close()
				if derr != nil || open.Session == "" {
					continue
				}
				for i := 0; i < 20 && time.Now().Before(deadline); i++ {
					qb, _ := json.Marshal(QueryRequest{Session: open.Session, Quel: facultyQuery})
					qr, err := http.Post(ts.URL+"/"+Protocol+"/query", "application/json", bytes.NewReader(qb))
					if err != nil {
						continue
					}
					if qr.StatusCode != http.StatusOK {
						var env errorEnvelope
						_ = json.NewDecoder(qr.Body).Decode(&env)
						code := env.Error.Code
						if code != CodeSessionExpired && code != CodeUnknownSession {
							select {
							case errs <- fmt.Sprintf("status %d code %q: %s", qr.StatusCode, code, env.Error.Message):
							default:
							}
						}
					}
					qr.Body.Close()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		if strings.Contains(msg, "code \"\"") || !strings.Contains(msg, "session") {
			t.Errorf("untyped failure under expiry race: %s", msg)
		}
	}
}

// scrapeServerCounter reads one counter off the /metrics endpoint.
func scrapeServerCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	var v int64 = -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v)
		}
	}
	return v
}
