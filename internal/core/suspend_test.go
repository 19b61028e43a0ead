package core

import (
	"fmt"
	"runtime"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/stream"
)

// batchOverlapPairs runs the overlap join in one shot over slices.
func batchOverlapPairs(t *testing.T, xs, ys []interval.Interval) []string {
	t.Helper()
	var out []string
	err := OverlapJoin(stream.FromSlice(xs), stream.FromSlice(ys), ivSpan, Options{},
		func(x, y interval.Interval) { out = append(out, fmt.Sprintf("%v|%v", x, y)) })
	if err != nil {
		t.Fatalf("batch overlap join: %v", err)
	}
	return out
}

func TestRunnerIncrementalMatchesBatch(t *testing.T) {
	xs := []interval.Interval{{Start: 1, End: 5}, {Start: 2, End: 9}, {Start: 6, End: 8}, {Start: 7, End: 12}}
	ys := []interval.Interval{{Start: 0, End: 3}, {Start: 4, End: 7}, {Start: 8, End: 10}, {Start: 11, End: 13}}
	want := batchOverlapPairs(t, xs, ys)

	r := NewRunner[string]()
	fx := Attach[interval.Interval](r)
	fy := Attach[interval.Interval](r)
	probe := &metrics.Probe{}
	r.Start(func(emit func(string)) error {
		return OverlapJoin[interval.Interval](fx, fy, ivSpan, Options{Probe: probe},
			func(x, y interval.Interval) { emit(fmt.Sprintf("%v|%v", x, y)) })
	})

	var got []string
	poll := func() {
		t.Helper()
		rows, err := r.Poll()
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		got = append(got, rows...)
	}
	// Feed in unbalanced dribbles; after each poll the accumulated output
	// must be a byte-identical prefix of the batch output.
	fx.Feed(xs[0], xs[1])
	fy.Feed(ys[0])
	poll()
	checkPrefix(t, got, want)

	fy.Feed(ys[1], ys[2], ys[3])
	poll()
	checkPrefix(t, got, want)

	fx.Feed(xs[2], xs[3])
	rows, err := r.Finish()
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	got = append(got, rows...)

	if len(got) != len(want) {
		t.Fatalf("incremental emitted %d pairs, batch %d", len(got), len(want))
	}
	checkPrefix(t, got, want)
	if r.Emitted() != int64(len(want)) {
		t.Errorf("Emitted() = %d, want %d", r.Emitted(), len(want))
	}
	if probe.Workspace() <= 0 {
		t.Errorf("probe workspace not tracked: %v", probe.Workspace())
	}
}

func checkPrefix(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("incremental emitted %d pairs, batch only %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delta %d = %q, batch has %q", i, got[i], want[i])
		}
	}
}

// TestRunnerRunsOnlyWhenPolled: feeding never runs the operator — its
// input waits in the feeders until a Poll — and neither ending leaves a
// goroutine behind.
func TestRunnerRunsOnlyWhenPolled(t *testing.T) {
	for _, end := range []string{"finish", "stop"} {
		t.Run(end, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := NewRunner[interval.Interval]()
			fx := Attach[interval.Interval](r)
			ended := false
			r.Start(func(emit func(interval.Interval)) error {
				for x, ok := fx.Next(); ok; x, ok = fx.Next() {
					emit(x)
				}
				ended = true
				return nil
			})
			for i := 0; i < 5; i++ {
				fx.Feed(interval.Interval{Start: interval.Time(i), End: interval.Time(i + 1)})
			}
			if n := r.Emitted(); n != 0 {
				t.Fatalf("emitted %d before any poll, want 0", n)
			}
			if n := fx.Backlog(); n != 5 {
				t.Fatalf("backlog = %d before any poll, want the 5 fed", n)
			}
			got, err := r.Poll()
			if err != nil || len(got) != 5 || fx.Backlog() != 0 {
				t.Fatalf("poll = %d rows, %v, backlog %d; want 5, nil, 0", len(got), err, fx.Backlog())
			}
			fx.Feed(interval.Interval{Start: 5, End: 6})
			if n := r.Emitted(); n != 5 {
				t.Fatalf("emitted %d after feeding past the poll, want 5", n)
			}
			if end == "finish" {
				rows, err := r.Finish()
				if err != nil || len(rows) != 1 {
					t.Fatalf("finish = %d rows, %v; want 1, nil", len(rows), err)
				}
			} else {
				r.Stop()
				if rows, _ := r.Poll(); len(rows) != 0 {
					t.Fatalf("polled %d rows after stop, want 0", len(rows))
				}
			}
			if !ended || !r.Done() {
				t.Fatalf("operator still running after %s returned", end)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("goroutines: %d before start, %d after %s", before, after, end)
			}
		})
	}
}

func TestRunnerStopTearsDown(t *testing.T) {
	r := NewRunner[interval.Interval]()
	fx := Attach[interval.Interval](r)
	fy := Attach[interval.Interval](r)
	r.Start(func(emit func(interval.Interval)) error {
		return OverlapJoin[interval.Interval](fx, fy, ivSpan, Options{},
			func(x, y interval.Interval) { emit(x) })
	})
	fx.Feed(interval.Interval{Start: 1, End: 4})
	if _, err := r.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	r.Stop()
	if !r.Done() {
		t.Fatal("operator still running after Stop returned")
	}
	if got, err := r.Poll(); len(got) != 0 || err != nil {
		t.Fatalf("polled %d, %v after stop, want 0, nil", len(got), err)
	}
	// Feeding after stop is a no-op, not a hang or panic.
	backlog := fx.Backlog()
	fx.Feed(interval.Interval{Start: 2, End: 3})
	if fx.Backlog() != backlog {
		t.Errorf("feed after stop buffered: backlog %d, want %d", fx.Backlog(), backlog)
	}
}

// Poll hands out the runner's emission buffer: the next Poll writes its
// emissions into the same backing array, so a caller keeps a poll's
// emissions only by copying them out before polling again.
func TestRunnerPollReusesBuffer(t *testing.T) {
	r := NewRunner[int]()
	f := Attach[int](r)
	r.Start(func(emit func(int)) error {
		for x, ok := f.Next(); ok; x, ok = f.Next() {
			emit(x)
		}
		return nil
	})
	f.Feed(1, 2, 3)
	first, err := r.Poll()
	if err != nil || len(first) != 3 {
		t.Fatalf("first poll = %v, %v; want 3 emissions", first, err)
	}
	kept := append([]int(nil), first...)
	f.Feed(7, 8)
	second, err := r.Poll()
	if err != nil || len(second) != 2 || second[0] != 7 || second[1] != 8 {
		t.Fatalf("second poll = %v, %v; want [7 8]", second, err)
	}
	if &first[0] != &second[0] {
		t.Fatal("second poll allocated a new emission buffer; want the first's backing array reused")
	}
	if first[0] != 7 || first[1] != 8 || first[2] != 3 {
		t.Fatalf("first result after the second poll = %v, want [7 8 3]: overwritten in place", first)
	}
	if kept[0] != 1 || kept[1] != 2 || kept[2] != 3 {
		t.Fatalf("copied-out emissions = %v, want [1 2 3]", kept)
	}
	f.Feed(9)
	rows, err := r.Finish()
	if err != nil || len(rows) != 1 || rows[0] != 9 || &rows[0] != &first[0] {
		t.Fatalf("finish = %v, %v; want [9] in the same buffer", rows, err)
	}
}
