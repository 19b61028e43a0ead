package driver_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	tdbdriver "tdb/driver"
	"tdb/internal/fault"
	"tdb/internal/obs"
	"tdb/internal/server"
)

// TestRetryHealsTornWrite: with the retry layer on (the default), a
// torn server response is retried transparently and the query succeeds.
func TestRetryHealsTornWrite(t *testing.T) {
	_, url := startServer(t, server.Config{})
	db := openDB(t, url)
	if err := fault.Arm("server/wire-write=torn:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	rows, err := db.Query(`range of f is Faculty retrieve (f.Name) where f.Rank = "Full"`)
	if err != nil {
		t.Fatalf("retry did not heal the torn write: %v", err)
	}
	defer rows.Close()
	if n := len(scanAll(t, rows)); n == 0 {
		t.Error("healed query returned no rows")
	}
}

// quotaServer always rejects with a quota envelope, counting attempts.
func quotaServer(t *testing.T, retryAfterMS int64, succeedAfter int32) (*httptest.Server, *int32) {
	t.Helper()
	var attempts int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&attempts, 1)
		if succeedAfter > 0 && n > succeedAfter {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"protocol":"v1","session":"s%d","tenant":"default","idle_timeout_ms":300000}`, n)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":{"code":"quota_concurrency","message":"tenant at capacity","retry_after_ms":%d}}`, retryAfterMS)
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

// TestRetryExhaustionWrapChain: when every attempt fails with a typed
// quota rejection, the final error wraps the typed error so both the
// sentinel (errors.Is) and the concrete *Error (errors.As) survive the
// retry layer's wrapping — and the attempt count is policy-bounded.
func TestRetryExhaustionWrapChain(t *testing.T) {
	ts, attempts := quotaServer(t, 1, 0)
	c, err := tdbdriver.NewConnector(ts.URL + "?retry_attempts=2&retry_base_ms=1&retry_max_ms=2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Connect(context.Background())
	if err == nil {
		t.Fatal("connect to always-rejecting server succeeded")
	}
	if got := atomic.LoadInt32(attempts); got != 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
	if !errors.Is(err, tdbdriver.ErrQuota) {
		t.Errorf("errors.Is(err, ErrQuota) = false through the retry wrap: %v", err)
	}
	var te *tdbdriver.Error
	if !errors.As(err, &te) || te.Code != tdbdriver.CodeQuotaConcurrency {
		t.Errorf("errors.As lost the typed error through the retry wrap: %v", err)
	}
	if !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Errorf("final error does not report the attempt count: %v", err)
	}
}

// TestRetryDisabledSurfacesFirstError: retry=off means one attempt, and
// the typed error surfaces unwrapped.
func TestRetryDisabledSurfacesFirstError(t *testing.T) {
	ts, attempts := quotaServer(t, 1, 0)
	c, err := tdbdriver.NewConnector(ts.URL + "?retry=off")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Connect(context.Background())
	if err == nil {
		t.Fatal("connect succeeded")
	}
	if got := atomic.LoadInt32(attempts); got != 1 {
		t.Errorf("server saw %d attempts, want 1 with retry=off", got)
	}
	if !errors.Is(err, tdbdriver.ErrQuota) {
		t.Errorf("errors.Is(err, ErrQuota) = false: %v", err)
	}
}

// TestRetryHonorsRetryAfter: the server's retry_after_ms advice
// stretches the backoff beyond the policy's own (tiny) base delay.
func TestRetryHonorsRetryAfter(t *testing.T) {
	ts, attempts := quotaServer(t, 300, 1)
	c, err := tdbdriver.NewConnector(ts.URL + "?retry_base_ms=1&retry_max_ms=2")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn, err := c.Connect(context.Background())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Errorf("second attempt after %v, want >= ~300ms per Retry-After advice", elapsed)
	}
	if got := atomic.LoadInt32(attempts); got < 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
}

// TestRetryNeverRetriesNonTransient: a typed parse error is not
// transient; the retry layer must surface it on the first attempt.
func TestRetryNeverRetriesNonTransient(t *testing.T) {
	_, url := startServer(t, server.Config{})
	db := openDB(t, url)
	// A parse error round-trips through the full stack once; assert the
	// error is typed and immediate (no multi-second backoff stall).
	start := time.Now()
	_, err := db.Query("this is not quel")
	if err == nil {
		t.Fatal("malformed quel parsed")
	}
	var te *tdbdriver.Error
	if !errors.As(err, &te) || te.Code != tdbdriver.CodeParse {
		t.Fatalf("want typed parse error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("parse error took %v — was it retried?", elapsed)
	}
}

// sseScript serves a canned session + subscribe SSE exchange, for
// protocol-violation tests no honest server would produce.
func sseScript(t *testing.T, events []string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/session"):
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"protocol":"v1","session":"s1","tenant":"default","idle_timeout_ms":300000}`)
		case strings.HasSuffix(r.URL.Path, "/subscribe"):
			w.Header().Set("Content-Type", "text/event-stream")
			fl := w.(http.Flusher)
			fmt.Fprint(w, "event: meta\ndata: {\"name\":\"q\",\"mode\":\"incremental\",\"columns\":[{\"name\":\"Name\",\"kind\":\"string\"}],\"resume\":\"q\",\"replay_cap\":8}\n\n")
			fl.Flush()
			for _, ev := range events {
				fmt.Fprint(w, ev)
				fl.Flush()
			}
			<-r.Context().Done()
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{}`)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func deltaEvent(seq int64, name string) string {
	return fmt.Sprintf("event: deltas\ndata: {\"seq\":%d,\"rows\":[[%q]]}\n\n", seq, name)
}

// TestSeqViolationGap: a server that skips a seq gets a typed
// ErrSeqViolation — the driver never papers over a gap.
func TestSeqViolationGap(t *testing.T) {
	ts := sseScript(t, []string{deltaEvent(1, "a"), deltaEvent(3, "c")})
	c, err := tdbdriver.NewConnector(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), "subscribe ...", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if d, err := sub.Next(); err != nil || d.Seq != 1 {
		t.Fatalf("first delta: %+v, %v", d, err)
	}
	_, err = sub.Next()
	if !errors.Is(err, tdbdriver.ErrSeqViolation) {
		t.Errorf("gap (1 -> 3) error = %v, want ErrSeqViolation", err)
	}
}

// TestSeqViolationDuplicate: a repeated seq is equally fatal — silent
// re-delivery would break exactly-once.
func TestSeqViolationDuplicate(t *testing.T) {
	ts := sseScript(t, []string{deltaEvent(1, "a"), deltaEvent(1, "a")})
	c, err := tdbdriver.NewConnector(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), "subscribe ...", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if _, err := sub.Next(); err != nil {
		t.Fatalf("first delta: %v", err)
	}
	_, err = sub.Next()
	if !errors.Is(err, tdbdriver.ErrSeqViolation) {
		t.Errorf("duplicate seq error = %v, want ErrSeqViolation", err)
	}
}

// feedSecond appends the two frontier-advancers that release exactly
// the pending carol × dave pair — the driver-side twin of the server
// package's second fixture batch. One released pair means one delta
// event, whatever the poll timing.
func feedSecond(t *testing.T, c *tdbdriver.Connector) {
	t.Helper()
	ctx := context.Background()
	for _, app := range []struct {
		rel string
		row []any
	}{
		{"F", []any{"iris", "Full", 60, 65}},
		{"G", []any{"jack", "Full", 61, 66}},
	} {
		if _, err := c.Append(ctx, app.rel, [][]any{app.row}, 0, true); err != nil {
			t.Fatalf("append %s: %v", app.rel, err)
		}
	}
}

// TestChaosAutoResume: a stream severed before delivery heals without
// the caller noticing — Next transparently re-dials with the resume
// token and returns the replayed event exactly once.
func TestChaosAutoResume(t *testing.T) {
	_, url := startServer(t, server.Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	c, err := tdbdriver.NewConnector(url)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), overlapSubscribe, 2)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if sub.Meta().Resume == "" {
		t.Fatal("meta carries no resume token")
	}
	if err := fault.Arm("server/subscribe-deliver=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	feedOverlap(t, c)
	d, err := sub.Next()
	if err != nil {
		t.Fatalf("Next across sever: %v", err)
	}
	if d.Seq != 1 || len(d.Rows) != 1 || d.Rows[0][0] != "alice" {
		t.Errorf("resumed delta %+v, want seq 1 [[alice]]", d)
	}
	if st := sub.Stats(); st.Resumes != 1 || st.LastResumeTime <= 0 {
		t.Errorf("stats %+v, want exactly 1 resume with nonzero latency", st)
	}
}

// TestChaosAutoResumeNoDuplicate: a stream severed after delivery
// resumes past the delivered event — the client sees each seq once.
func TestChaosAutoResumeNoDuplicate(t *testing.T) {
	_, url := startServer(t, server.Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	c, err := tdbdriver.NewConnector(url)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), overlapSubscribe, 2)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	if err := fault.Arm("server/conn-sever=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	feedOverlap(t, c)
	d1, err := sub.Next()
	if err != nil || d1.Seq != 1 {
		t.Fatalf("first delta %+v, %v", d1, err)
	}
	feedSecond(t, c)
	d2, err := sub.Next()
	if err != nil {
		t.Fatalf("Next across post-delivery sever: %v", err)
	}
	if d2.Seq != 2 {
		t.Fatalf("second delta seq %d, want 2 (no replay of seq 1)", d2.Seq)
	}
	for _, row := range d2.Rows {
		if row[0] == "alice" {
			t.Errorf("post-resume delta duplicated alice: %+v", d2)
		}
	}
	if st := sub.Stats(); st.Resumes != 1 {
		t.Errorf("stats %+v, want exactly 1 resume", st)
	}
}

// TestChaosSeveredFleetExactlyOnce: 1, 8 and 64 subscriptions to one
// overlap query are fed delta rounds while a delivery sever is armed
// before every second round, and every keyed append is sent twice. Each
// round releases exactly one pair, so every subscription must receive
// seq r in round r. Delivery stays exactly-once under fire: resumes equal
// severs, no seq is skipped or repeated, every round reaches every
// subscription, and the idempotency window answers every duplicate send.
func TestChaosSeveredFleetExactlyOnce(t *testing.T) {
	const rounds, severEvery = 4, 2
	for _, clients := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			reg := obs.NewRegistry()
			_, url := startServer(t, server.Config{DB: liveDB(t), Registry: reg, SubscribePoll: 2 * time.Millisecond})
			c, err := tdbdriver.NewConnector(url)
			if err != nil {
				t.Fatal(err)
			}
			defer fault.Reset()
			type delivery struct {
				seq int64
				err error
			}
			subs := make([]*tdbdriver.Subscription, clients)
			chans := make([]chan delivery, clients)
			for i := range subs {
				sub, err := c.Subscribe(context.Background(), overlapSubscribe, 2)
				if err != nil {
					t.Fatalf("subscribe %d: %v", i, err)
				}
				defer sub.Close()
				// One send per round plus the terminal error after Close:
				// the reader never blocks on a subtest that has returned.
				subs[i], chans[i] = sub, make(chan delivery, rounds+1)
				go func(sub *tdbdriver.Subscription, ch chan<- delivery) {
					for {
						d, err := sub.Next()
						ch <- delivery{d.Seq, err}
						if err != nil {
							return
						}
					}
				}(sub, chans[i])
			}

			severs, dups := 0, 0
			for r := 1; r <= rounds; r++ {
				if r%severEvery == 0 {
					if err := fault.Arm("server/subscribe-deliver=error:n=1"); err != nil {
						t.Fatal(err)
					}
					severs++
				}
				dups += feedRoundTwice(t, c, r)
				for i, ch := range chans {
					select {
					case d := <-ch:
						if d.err != nil {
							t.Fatalf("round %d subscription %d: %v", r, i, d.err)
						}
						if d.seq != int64(r) {
							t.Fatalf("round %d subscription %d: delta seq %d", r, i, d.seq)
						}
					case <-time.After(30 * time.Second):
						t.Fatalf("round %d subscription %d: no delta within 30s", r, i)
					}
				}
			}
			resumes := 0
			for _, sub := range subs {
				resumes += sub.Stats().Resumes
			}
			if resumes != severs {
				t.Errorf("resumes %d, severs %d; want equal", resumes, severs)
			}
			hits := reg.Counter("tdb_server_append_dedup_hits_total", "").Value()
			if hits != int64(dups) {
				t.Errorf("dedup hits %d, duplicate sends %d; want equal", hits, dups)
			}
		})
	}
}

// feedRoundTwice appends round r of the fleet fixture, sending every
// append twice under one idempotency key, and returns the number of
// duplicate sends. Round r adds one overlapping F × G pair that stays
// below the frontiers until round r+1's pair lands, G last: the final
// append of every round releases exactly the previous round's pair
// (round 1 releases a seed pair), so round r's delta carries seq r.
func feedRoundTwice(t *testing.T, c *tdbdriver.Connector, r int) int {
	t.Helper()
	ctx := context.Background()
	type app struct {
		rel, name string
		from, to  int
	}
	var apps []app
	if r == 1 {
		apps = append(apps, app{"F", "alice", 1, 10}, app{"G", "bob", 2, 8})
	}
	base := 100 * r
	apps = append(apps,
		app{"F", fmt.Sprintf("iris%d", r), base + 60, base + 65},
		app{"G", fmt.Sprintf("jack%d", r), base + 61, base + 66})
	for _, a := range apps {
		rows := [][]any{{a.name, "Full", a.from, a.to}}
		key := a.rel + "-" + a.name
		first, err := c.AppendKeyed(ctx, a.rel, rows, 0, true, key)
		if err != nil || first.Deduped || first.Appended != 1 {
			t.Fatalf("append %s: %+v, %v", a.name, first, err)
		}
		again, err := c.AppendKeyed(ctx, a.rel, rows, 0, true, key)
		if err != nil || !again.Deduped {
			t.Fatalf("duplicate append %s: %+v, %v; want a deduped replay", a.name, again, err)
		}
	}
	return len(apps)
}

// TestAppendDedupOnWire: the connector's generated idempotency keys
// round-trip — an explicit key retried by hand reports the deduped
// replay, proving the append path the retry layer depends on.
func TestAppendDedupOnWire(t *testing.T) {
	_, url := startServer(t, server.Config{DB: liveDB(t)})
	c, err := tdbdriver.NewConnector(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := c.AppendKeyed(ctx, "F", [][]any{{"kay", "Full", 1, 5}}, 0, true, "wire-key-1")
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if first.Deduped || first.Appended != 1 {
		t.Fatalf("first append %+v", first)
	}
	second, err := c.AppendKeyed(ctx, "F", [][]any{{"kay", "Full", 1, 5}}, 0, true, "wire-key-1")
	if err != nil {
		t.Fatalf("replayed append: %v", err)
	}
	if !second.Deduped || second.Appended != 1 {
		t.Errorf("replayed append %+v, want deduped replay of the original outcome", second)
	}
}

// TestPingReportsReadiness: the ping endpoint exposes the readiness
// state machine to drivers even while draining.
func TestPingReportsReadiness(t *testing.T) {
	s := server.New(server.Config{DB: seededDB(t, 40)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL
	resp, err := http.Post(url+"/v1/ping", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var ping struct {
		Protocol string `json:"protocol"`
		Status   string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ping); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ping.Status != "serving" {
		t.Errorf("ping status %q, want serving", ping.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/v1/ping", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("ping after drain: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&ping); err != nil {
		t.Fatal(err)
	}
	if ping.Status != "draining" {
		t.Errorf("post-drain ping status %q, want draining", ping.Status)
	}
}
