package storage

import (
	"path/filepath"
	"sync"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

// rangeFile builds a multi-page heap file with an unflushed tail row.
func rangeFile(t *testing.T, n int) (*HeapFile, []relation.Row) {
	t.Helper()
	hf, err := Create(filepath.Join(t.TempDir(), "r.tdb"), relation.TupleSchema, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hf.Close() })
	var want []relation.Row
	for i := 0; i < n; i++ {
		row := makeRow("S", "some-padding-value", interval.Time(i), interval.Time(i+3))
		want = append(want, row)
		if err := hf.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if hf.Pages() < 3 {
		t.Fatalf("test needs several flushed pages, got %d", hf.Pages())
	}
	return hf, want
}

// Contiguous ranges concatenated in order must reproduce Scan exactly,
// with the open tail page owned by whichever range reaches past Pages().
func TestScanRangePartitionsEqualScan(t *testing.T) {
	hf, want := rangeFile(t, 500)
	pages := hf.Pages()
	for _, k := range []int64{1, 2, 3, 5} {
		var got []relation.Row
		for i := int64(0); i < k; i++ {
			lo, hi := pages*i/k, pages*(i+1)/k
			if i == k-1 {
				hi = pages + 1 // the last shard drains the tail
			}
			rows, err := stream.Collect(hf.ScanRange(lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rows...)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d rows, want %d", k, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("k=%d: row %d out of file order", k, i)
			}
		}
	}
}

// A range ending at Pages() excludes the unflushed tail; one reaching past
// it includes the tail; out-of-range bounds clamp rather than error.
func TestScanRangeTailAndClamping(t *testing.T) {
	hf, want := rangeFile(t, 500)
	pages := hf.Pages()

	flushedOnly, err := stream.Collect(hf.ScanRange(0, pages))
	if err != nil {
		t.Fatal(err)
	}
	withTail, err := stream.Collect(hf.ScanRange(0, pages+1))
	if err != nil {
		t.Fatal(err)
	}
	if len(withTail) != len(want) {
		t.Fatalf("tail-inclusive range: %d rows, want %d", len(withTail), len(want))
	}
	if tail := len(withTail) - len(flushedOnly); tail <= 0 {
		t.Fatalf("tail page not excluded from [0, Pages()): %d vs %d rows", len(flushedOnly), len(withTail))
	}
	if clamped, err := stream.Collect(hf.ScanRange(-3, pages*100)); err != nil || len(clamped) != len(want) {
		t.Fatalf("clamped range: %d rows, err %v", len(clamped), err)
	}
	if empty, err := stream.Collect(hf.ScanRange(2, 2)); err != nil || len(empty) != 0 {
		t.Fatalf("empty range produced %d rows, err %v", len(empty), err)
	}
	if reversed, err := stream.Collect(hf.ScanRange(3, 1)); err != nil || len(reversed) != 0 {
		t.Fatalf("reversed range produced %d rows, err %v", len(reversed), err)
	}
	tail := len(withTail) - len(flushedOnly)
	if past, err := stream.Collect(hf.ScanRange(pages+5, pages+9)); err != nil || len(past) != tail {
		t.Fatalf("range past the file: %d rows, want the %d tail rows, err %v", len(past), tail, err)
	}
	if rows, err := hf.ReadRows(pages+5, pages+9, nil); err != nil || len(rows) != tail {
		t.Fatalf("ReadRows past the file: %d rows, want the %d tail rows, err %v", len(rows), tail, err)
	}
}

// Disjoint ranges consumed concurrently (the parallel-scan access pattern)
// count every page exactly once through the shared pool and stats.
func TestScanRangeConcurrentDisjoint(t *testing.T) {
	hf, want := rangeFile(t, 500)
	pages := hf.Pages()
	const k = 4
	outs := make([][]relation.Row, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := int64(0); i < k; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			lo, hi := pages*i/k, pages*(i+1)/k
			if i == k-1 {
				hi = pages + 1
			}
			outs[i], errs[i] = stream.Collect(hf.ScanRange(lo, hi))
		}(i)
	}
	wg.Wait()
	var got []relation.Row
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got = append(got, outs[i]...)
	}
	if len(got) != len(want) {
		t.Fatalf("concurrent ranges: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("concurrent ranges: row %d out of file order", i)
		}
	}
	if reads := hf.Stats().PagesRead; reads != pages {
		t.Errorf("disjoint ranges read %d pages, want exactly %d", reads, pages)
	}
}
