package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"tdb/internal/obs"
)

// testWindow is a dedup window on a hand-driven clock.
func testWindow(ttl time.Duration, max int) (*dedupWindow, *time.Time) {
	d := newDedupWindow(ttl, max, obs.NewRegistry())
	clock := time.Unix(1_000_000, 0)
	d.now = func() time.Time { return clock }
	return d, &clock
}

// served reports whether claim replays a remembered outcome for key. A
// miss claims the key, so the claim is released again.
func served(t *testing.T, d *dedupWindow, key string) bool {
	t.Helper()
	e, c, apiErr := d.claim(context.Background(), key)
	if apiErr != nil {
		t.Fatalf("claim %q: %v", key, apiErr)
	}
	if c != nil {
		d.release(c)
	}
	return e != nil
}

// held is the number of records the age queue holds, stale ones included.
func held(d *dedupWindow) int { return len(d.q) - d.head }

func TestDedupWindowTTL(t *testing.T) {
	d, clock := testWindow(time.Minute, 16)
	d.store("old", AppendResponse{Appended: 3}, nil)
	*clock = clock.Add(30 * time.Second)
	d.store("young", AppendResponse{Appended: 4}, nil)
	if !served(t, d, "old") {
		t.Fatal("entry inside the TTL not served")
	}
	*clock = clock.Add(31 * time.Second)
	if served(t, d, "old") {
		t.Error("entry past the TTL served")
	}
	if !served(t, d, "young") {
		t.Error("entry inside the TTL not served")
	}
	d.store("next", AppendResponse{}, nil)
	if _, ok := d.m["old"]; ok {
		t.Error("expired entry not pruned by the next store")
	}
	if len(d.m) != 2 || held(d) != 2 {
		t.Errorf("window holds %d entries, %d records; want 2, 2", len(d.m), held(d))
	}
}

func TestDedupWindowCountBound(t *testing.T) {
	const max = 8
	d, clock := testWindow(time.Hour, max)
	for i := 0; i < 10*max; i++ {
		*clock = clock.Add(time.Millisecond)
		d.store(fmt.Sprint("k", i), AppendResponse{Appended: i}, nil)
		if len(d.m) > max {
			t.Fatalf("after store %d the window holds %d entries, max %d", i, len(d.m), max)
		}
	}
}

func TestDedupWindowEvictsOldestFirst(t *testing.T) {
	d, clock := testWindow(time.Hour, 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		*clock = clock.Add(time.Second)
		d.store(k, AppendResponse{}, nil)
	}
	d.store("b", AppendResponse{}, nil) // b is now the youngest
	for _, step := range []struct{ store, gone string }{
		{"e", "a"}, {"f", "c"}, {"g", "d"}, {"h", "b"},
	} {
		d.store(step.store, AppendResponse{}, nil)
		if _, ok := d.m[step.gone]; ok || len(d.m) != 4 {
			t.Fatalf("store %s: window %v, want %s evicted and 4 entries", step.store, keys(d), step.gone)
		}
	}
}

// A key stored again leaves a stale record behind in the queue. Popping
// that record must never evict the key's newer entry.
func TestDedupWindowRestoredKeySurvivesStaleRecord(t *testing.T) {
	t.Run("after expiry", func(t *testing.T) {
		d, clock := testWindow(time.Minute, 8)
		d.store("k", AppendResponse{Appended: 1}, nil)
		*clock = clock.Add(2 * time.Minute)
		d.store("k", AppendResponse{Appended: 2}, nil)
		for i := 0; i < 7; i++ {
			d.store(fmt.Sprint("x", i), AppendResponse{}, nil)
		}
		if e, ok := d.m["k"]; !ok || e.resp.Appended != 2 {
			t.Fatalf("re-stored key lost or stale: %+v, %v", e, ok)
		}
		if !served(t, d, "k") {
			t.Error("re-stored key not served")
		}
	})
	t.Run("at capacity", func(t *testing.T) {
		d, _ := testWindow(time.Hour, 4)
		for _, k := range []string{"a", "k", "b", "k", "c", "d"} {
			d.store(k, AppendResponse{}, nil)
		}
		// Queue: a, k(stale), b, k, c, d. The stale k is next after a.
		d.store("e", AppendResponse{}, nil)
		if _, ok := d.m["k"]; !ok {
			t.Fatalf("stale record evicted the re-stored key: window %v", keys(d))
		}
		if _, ok := d.m["b"]; ok {
			t.Errorf("window %v, want b evicted as the oldest live entry", keys(d))
		}
	})
}

func TestDedupWindowResetClears(t *testing.T) {
	d, _ := testWindow(time.Hour, 8)
	for i := 0; i < 20; i++ {
		d.store(fmt.Sprint("k", i%10), AppendResponse{}, nil)
	}
	d.reset()
	if len(d.m) != 0 || held(d) != 0 {
		t.Fatalf("reset left %d entries, %d records", len(d.m), held(d))
	}
	if served(t, d, "k9") {
		t.Error("reset window still serves a key")
	}
}

// Re-stores of live keys leave stale records between live ones, where
// the front pops never reach them while the oldest entry stays live.
func TestDedupWindowQueueStaysBounded(t *testing.T) {
	const max = 32
	d, clock := testWindow(time.Second, max)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100*max; i++ {
		*clock = clock.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
		key := fmt.Sprint("hot", rng.Intn(max/4))
		if rng.Intn(10) == 0 {
			key = fmt.Sprint("fresh", i)
		}
		d.store(key, AppendResponse{}, nil)
		if held(d) > 2*max+1 || len(d.m) > max {
			t.Fatalf("after store %d: %d records, %d entries (max %d)", i, held(d), len(d.m), max)
		}
		if 2*d.head > len(d.q) {
			t.Fatalf("after store %d: head %d past half of %d", i, d.head, len(d.q))
		}
	}
}

func TestDedupClaimWaiterReplaysOwnerOutcome(t *testing.T) {
	d, _ := testWindow(time.Hour, 8)
	_, owner, _ := d.claim(context.Background(), "k")
	if owner == nil {
		t.Fatal("first claim did not own the key")
	}
	got := make(chan *dedupEntry, 1)
	go func() {
		e, c, apiErr := d.claim(context.Background(), "k")
		if apiErr != nil || c != nil {
			t.Errorf("waiter: claim %v, error %v; want a replay", c, apiErr)
		}
		got <- e
	}()
	waitFor(t, func() bool { return d.waits.Value() == 1 })
	d.store("k", AppendResponse{Appended: 7}, nil)
	d.release(owner) // settled: a no-op
	if e := <-got; e == nil || e.resp.Appended != 7 {
		t.Fatalf("waiter replayed %+v, want the owner's appended=7", e)
	}
}

func TestDedupClaimReleasedOrCanceled(t *testing.T) {
	d, _ := testWindow(time.Hour, 8)
	_, owner, _ := d.claim(context.Background(), "k")

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan *Error, 1)
	go func() {
		_, _, apiErr := d.claim(ctx, "k")
		canceled <- apiErr
	}()
	waitFor(t, func() bool { return d.waits.Value() == 1 })
	cancel()
	if apiErr := <-canceled; apiErr == nil || apiErr.Code != CodeCanceled {
		t.Fatalf("canceled waiter got %v, want %s", apiErr, CodeCanceled)
	}

	next := make(chan *dedupClaim, 1)
	go func() {
		_, c, _ := d.claim(context.Background(), "k")
		next <- c
	}()
	waitFor(t, func() bool { return d.waits.Value() == 2 })
	d.release(owner) // the owner gave up without an outcome
	c := <-next
	if c == nil {
		t.Fatal("waiter did not take over the dropped claim")
	}
	d.release(c)
	if len(d.claims) != 0 {
		t.Errorf("%d claims left", len(d.claims))
	}
}

func TestDedupResetWakesWaiters(t *testing.T) {
	d, _ := testWindow(time.Hour, 8)
	_, owner, _ := d.claim(context.Background(), "k")
	next := make(chan *dedupClaim, 1)
	go func() {
		_, c, _ := d.claim(context.Background(), "k")
		next <- c
	}()
	waitFor(t, func() bool { return d.waits.Value() == 1 })
	d.reset()
	c := <-next
	if c == nil {
		t.Fatal("woken waiter did not claim the key afresh")
	}
	d.release(owner) // not the key's claim any more: a no-op
	if d.claims["k"] != c {
		t.Error("stale owner's release dropped the new claim")
	}
	d.release(c)
}

// fullWindow returns a window already holding max entries, and the keys
// for n further stores.
func fullWindow(max, n int) (*dedupWindow, []string) {
	d := newDedupWindow(time.Hour, max, obs.NewRegistry())
	for i := 0; i < max; i++ {
		d.store(fmt.Sprintf("fill-%08d", i), AppendResponse{Appended: 1}, nil)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("next-%08d", i)
	}
	return d, keys
}

func BenchmarkDedupWindowStore(b *testing.B) {
	for _, max := range []int{4096, 65536} {
		b.Run(fmt.Sprint("max=", max), func(b *testing.B) {
			d, keys := fullWindow(max, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range keys {
				d.store(k, AppendResponse{Appended: 1}, nil)
			}
		})
	}
}

// TestDedupStoreCostIsFlat pins store's cost to the window's size: into
// a full window 16× larger, a store may cost at most 4× as much. A store
// that scans the window fails it by far (about 23×). Both windows take
// the same stores in alternating timed chunks, and the median chunk
// ratio decides, so neither a busy moment of the machine nor a one-off
// growth of the queue's array does.
func TestDedupStoreCostIsFlat(t *testing.T) {
	const chunks, chunk = 40, 64
	small, smallKeys := fullWindow(4096, chunks*chunk)
	large, largeKeys := fullWindow(65536, chunks*chunk)
	timed := func(d *dedupWindow, keys []string) time.Duration {
		start := time.Now()
		for _, k := range keys {
			d.store(k, AppendResponse{Appended: 1}, nil)
		}
		return time.Since(start)
	}
	runtime.GC()
	ratios := make([]float64, chunks)
	for c := range ratios {
		part := func(keys []string) []string { return keys[c*chunk : (c+1)*chunk] }
		s := timed(small, part(smallKeys))
		ratios[c] = float64(timed(large, part(largeKeys))) / float64(s)
	}
	slices.Sort(ratios)
	ratio := ratios[chunks/2]
	t.Logf("%d-store chunks, max=65536 over max=4096: median %.2f×, range %.2f–%.2f×", chunk, ratio, ratios[0], ratios[chunks-1])
	if ratio > 4 {
		t.Errorf("a store into a full 65 536-entry window costs %.1f× one into a 4 096-entry window, bound 4×", ratio)
	}
}

func keys(d *dedupWindow) []string {
	var out []string
	for _, r := range d.q[d.head:] {
		if e, ok := d.m[r.key]; ok && e.seq == r.seq {
			out = append(out, r.key)
		}
	}
	return out
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
}
