package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"testing"

	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/relation"
)

// keysOf runs ScanKeys over TupleSchema's ValidFrom and ValidTo.
func keysOf(t *testing.T, hf *HeapFile, keep bool) *Keys {
	t.Helper()
	k, err := hf.ScanKeys(2, 3, keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// requireKeys checks a key scan against the rows it covers: the same
// lifespans in file order and, if it kept them, the same rows by position.
func requireKeys(t *testing.T, name string, k *Keys, want []relation.Row) {
	t.Helper()
	if len(k.TS) != len(want) || len(k.TE) != len(want) {
		t.Fatalf("%s: %d/%d keys, want %d", name, len(k.TS), len(k.TE), len(want))
	}
	for i, r := range want {
		if sp := r.Span(relation.TupleSchema); k.TS[i] != sp.Start || k.TE[i] != sp.End {
			t.Fatalf("%s: key %d is [%d,%d), row %v", name, i, k.TS[i], k.TE[i], r)
		}
	}
	if k.Rows == nil {
		return
	}
	row := make(relation.Row, k.Rows.Arity())
	for i, r := range want {
		if err := k.Rows.Decode(row, int32(i)); err != nil {
			t.Fatalf("%s: decode %d: %v", name, i, err)
		}
		if !row.Equal(r) {
			t.Fatalf("%s: row %d decodes to %v, want %v", name, i, row, r)
		}
	}
}

// A key scan reads each page once, decodes nothing until asked, and covers
// the open tail page with a copy: rows appended after the scan neither
// show up in it nor disturb the rows it kept. A string column is refused.
func TestScanKeysTailCopiedNotAliased(t *testing.T) {
	hf, want := pagedFile(t, 500) // leaves rows on the open tail page
	if hf.cur.rows == 0 {
		t.Fatal("fixture has no open tail page")
	}
	pages := hf.Pages()
	k := keysOf(t, hf, true)
	if got := hf.Stats().PagesRead; got != pages {
		t.Errorf("key scan read %d pages, the file has %d", got, pages)
	}
	if got := hf.Stats().RowsDecoded; got != 0 {
		t.Errorf("key scan decoded %d rows", got)
	}
	if cap(k.TS) != len(want) || cap(k.Rows.rids) != len(want) {
		t.Errorf("columns of cap %d and %d RIDs for %d rows: not exact", cap(k.TS), cap(k.Rows.rids), len(want))
	}
	// Overwrite what is left of the tail page.
	for i := 0; hf.Pages() == pages; i++ {
		if err := hf.Append(makeRow("T", "overwrites-the-tail", -1, -1)); err != nil {
			t.Fatal(err)
		}
	}
	requireKeys(t, "after appends", k, want)
	if got := hf.Stats().RowsDecoded; got != int64(len(want)) {
		t.Errorf("RowsDecoded %d after decoding %d rows", got, len(want))
	}
	// Without keep, no page is copied.
	if k := keysOf(t, hf, false); k.Rows != nil || len(k.TS) != int(hf.Rows()) {
		t.Errorf("keyless scan kept rows %v, %d keys of %d rows", k.Rows, len(k.TS), hf.Rows())
	}
	if _, err := hf.ScanKeys(0, 3, false, nil); err == nil {
		t.Error("key scan of a string column accepted")
	}
}

// check runs before every page and stops the scan with its error.
func TestScanKeysCheckStopsPerPage(t *testing.T) {
	hf, _ := pagedFile(t, 500)
	stop := errors.New("stop")
	calls := 0
	check := func() error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	}
	if _, err := hf.ScanKeys(2, 3, true, check); !errors.Is(err, stop) {
		t.Fatalf("error %v, want the check's", err)
	}
	if got := hf.Stats().PagesRead; got != 1 {
		t.Errorf("stopped scan read %d pages, want 1", got)
	}
	calls = 0
	if _, _, err := hf.ReadRows(check); !errors.Is(err, stop) {
		t.Fatalf("row scan error %v, want the check's", err)
	}
}

// The pool evicts the least recently used frame and recycles it.
func TestBufferPoolLRU(t *testing.T) {
	hf, _ := pagedFile(t, 500)
	hf.pool = newBufferPool(2, hf.stats)
	var buf [PageSize]byte
	read := func(i int64) {
		if _, err := hf.readPage(i, &buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int64{0, 1, 0, 2} { // 2 evicts 1, the least recent
		read(i)
	}
	hits, reads := hf.stats.PoolHits, hf.stats.PagesRead
	if hits != 1 || reads != 3 {
		t.Fatalf("%d hits, %d reads; want 1 and 3", hits, reads)
	}
	read(0)
	read(1)
	if hf.stats.PoolHits != 2 || hf.stats.PagesRead != 4 {
		t.Errorf("page 0 must hit and page 1 miss: %d hits, %d reads", hf.stats.PoolHits, hf.stats.PagesRead)
	}
	if len(hf.pool.frames) != 2 {
		t.Errorf("pool of 2 holds %d frames", len(hf.pool.frames))
	}
}

// An external key sort of 80 runs creates one spill file, whatever way it
// ends, and leaves the directory empty.
func TestExternalSortKeysOneSpillFile(t *testing.T) {
	defer fault.Reset()
	created := 0
	createTemp = func(dir, pattern string) (*os.File, error) {
		created++
		return os.CreateTemp(dir, pattern)
	}
	defer func() { createTemp = os.CreateTemp }()
	ivs := tiedSpans(rand.New(rand.NewSource(24)), 400)
	ts, te := relation.ShredSpans(ivs, identity)
	o := relation.Order{relation.TSAsc}
	want, _, _ := relation.OrderSpans(ivs, identity, o)
	for _, spec := range []string{"", "storage/page-write=error:n=40"} {
		fault.Reset()
		if spec != "" {
			if err := fault.Arm(spec); err != nil {
				t.Fatal(err)
			}
		}
		created = 0
		dir := t.TempDir()
		var st SortStats
		got, err := ExternalSortKeys(ts, te, o, 5, dir, &st)
		switch {
		case spec == "" && err != nil:
			t.Fatal(err)
		case spec == "" && (st.Runs != 80 || len(got) != len(want)):
			t.Fatalf("%d runs, %d indexes; want 80 and %d", st.Runs, len(got), len(want))
		case spec != "" && !errors.Is(err, fault.ErrInjected):
			t.Fatalf("under %s: error %v", spec, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("position %d holds %d, OrderSpans %d", i, got[i], want[i])
			}
		}
		if created != 1 {
			t.Errorf("%q: the sort created %d files, want 1", spec, created)
		}
		requireEmptyDir(t, dir, "after the sort "+spec)
	}
}

// FuzzPageKeys holds the key walk to the row decoder on arbitrary page
// images, raw and resealed: both fail with ErrCorruptPage or both succeed,
// and then they agree on every row's lifespan, and decoding at each
// recorded offset yields decodePage's row.
func FuzzPageKeys(f *testing.F) {
	schema := relation.TupleSchema
	p := newPage()
	p.tryAdd(makeRow("Smith", "Assistant", 1, 5))
	p.tryAdd(makeRow("", "", -3, interval.Forever))
	p.finalize()
	f.Add(p.buf[:p.used])
	f.Add(p.buf[:pageHeaderSize+5])
	f.Add([]byte{2, 0, 30, 0, 0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		for _, sealed := range []bool{false, true} {
			page := append([]byte(nil), data...)
			if sealed {
				reseal(page)
			}
			rows, derr := decodePage(nil, page, schema)
			ts, te, rids, kerr := pageKeys(page, schema, 2, 3, nil, nil, []int64{}, 0)
			if (derr == nil) != (kerr == nil) {
				t.Fatalf("decodePage error %v, key walk error %v", derr, kerr)
			}
			if kerr != nil {
				if !errors.Is(kerr, ErrCorruptPage) {
					t.Fatalf("untyped error: %v", kerr)
				}
				continue
			}
			if len(ts) != len(rows) || len(te) != len(rows) || len(rids) != len(rows) {
				t.Fatalf("%d rows, %d/%d keys, %d offsets", len(rows), len(ts), len(te), len(rids))
			}
			text := string(page[:binary.LittleEndian.Uint16(page[2:4])])
			row := make(relation.Row, schema.Arity())
			for i, r := range rows {
				if sp := r.Span(schema); ts[i] != sp.Start || te[i] != sp.End {
					t.Fatalf("row %d: keys [%d,%d), row %v", i, ts[i], te[i], r)
				}
				if _, err := decodeRow(row, text, int(rids[i]), schema); err != nil || !row.Equal(r) {
					t.Fatalf("row %d at offset %d: %v %v, want %v", i, rids[i], row, err, r)
				}
			}
		}
	})
}
