package storage

import (
	"path/filepath"
	"sync"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

// pagedFile builds a multi-page heap file with an unflushed tail row.
func pagedFile(t *testing.T, n int) (*HeapFile, []relation.Row) {
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

// Scan and ReadRows cover the open tail page after the flushed ones, in
// file order, and a flush of the tail changes neither what they return nor
// its order.
func TestScanOpenTailPage(t *testing.T) {
	hf, want := pagedFile(t, 500)
	if hf.cur.rows == 0 {
		t.Fatal("fixture has no open tail page")
	}
	check := func(when string) {
		t.Helper()
		scanned, err := stream.Collect(hf.Scan())
		if err != nil {
			t.Fatal(err)
		}
		read, _, err := hf.ReadRows(nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]relation.Row{"Scan": scanned, "ReadRows": read} {
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d rows, want %d", name, when, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s %s: row %d out of file order", name, when, i)
				}
			}
		}
	}
	pages := hf.Pages()
	check("with the tail open")
	if err := hf.Flush(); err != nil {
		t.Fatal(err)
	}
	if hf.Pages() != pages+1 || hf.cur.rows != 0 {
		t.Fatalf("flush left %d pages and %d open rows, want %d and 0", hf.Pages(), hf.cur.rows, pages+1)
	}
	check("after the tail was flushed")
}

// Whole-file readers running concurrently share the pool and the stats:
// each returns every row in file order, every page fetch counts once, as a
// read or as a pool hit, and each reader's own count of pages read adds up
// to the file's.
func TestScanConcurrentReaders(t *testing.T) {
	hf, want := pagedFile(t, 500)
	pages := hf.Pages()
	const k = 4
	outs := make([][]relation.Row, k)
	keys := make([]*Keys, k)
	reads := make([]int64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				outs[i], reads[i], errs[i] = hf.ReadRows(nil)
				return
			}
			if keys[i], errs[i] = hf.ScanKeys(2, 3, true, nil); errs[i] == nil {
				reads[i] = keys[i].PagesRead
			}
		}(i)
	}
	wg.Wait()
	var sum int64
	for i := range k {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sum += reads[i]
		if keys[i] != nil {
			requireKeys(t, "concurrent key scan", keys[i], want)
			continue
		}
		if len(outs[i]) != len(want) {
			t.Fatalf("reader %d: %d rows, want %d", i, len(outs[i]), len(want))
		}
		for j := range outs[i] {
			if !outs[i][j].Equal(want[j]) {
				t.Fatalf("reader %d: row %d out of file order", i, j)
			}
		}
	}
	st := hf.Stats()
	if st.PagesRead+st.PoolHits != k*pages || sum != st.PagesRead {
		t.Errorf("%d page reads (readers count %d) and %d pool hits for %d readers of %d pages",
			st.PagesRead, sum, st.PoolHits, k, pages)
	}
}
