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
	"tdb/internal/stream"
)

// engineOrders are the orders the engine establishes (Tables 1–3).
var engineOrders = []relation.Order{
	{relation.TSAsc}, {relation.TEAsc}, {relation.TSDesc}, {relation.TSAsc, relation.TEAsc},
}

// tiedSpans draws n lifespans whose endpoints collide constantly, a fifth of
// them open-ended, so how a sort orders equal keys shows in its permutation.
func tiedSpans(rng *rand.Rand, n int) []interval.Interval {
	out := make([]interval.Interval, n)
	for i := range out {
		s := interval.Time(rng.Intn(9) - 4)
		out[i] = interval.Interval{Start: s, End: s + 1 + interval.Time(rng.Intn(3))}
		if rng.Intn(5) == 0 {
			out[i].End = interval.Forever
		}
	}
	return out
}

func identity(iv interval.Interval) interval.Interval { return iv }

func requireEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%s: %d files left in the spill directory, first %s", when, len(left), left[0].Name())
	}
}

// The external permutation is relation.OrderSpans's at every workspace:
// one record, two, a size that leaves a ragged last run, one short of the
// input, the input, and more.
func TestExternalSortKeysMatchesOrderSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 613
	ivs := tiedSpans(rng, n)
	ts, te := relation.ShredSpans(ivs, identity)
	for _, o := range engineOrders {
		want, _, _ := relation.OrderSpans(ivs, identity, o)
		if want == nil {
			t.Fatalf("order %v: the fixture is already sorted", o)
		}
		for _, memRows := range []int{1, 2, 7, n - 1, n, n + 1} {
			dir := t.TempDir()
			var st SortStats
			got, err := ExternalSortKeys(ts, te, o, memRows, dir, &st, nil)
			if err != nil {
				t.Fatalf("order %v memRows=%d: %v", o, memRows, err)
			}
			if len(got) != n {
				t.Fatalf("order %v memRows=%d: %d indexes, want %d", o, memRows, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order %v memRows=%d: position %d holds lifespan %d, OrderSpans %d", o, memRows, i, got[i], want[i])
				}
			}
			runs := (n + memRows - 1) / memRows
			pages := int64(0)
			if runs > 1 {
				for left := n; left > 0; left -= memRows {
					pages += int64((min(left, memRows) + keyRecsPerPage - 1) / keyRecsPerPage)
				}
			}
			if st.Runs != runs || st.PagesWritten != pages || st.PagesRead != pages {
				t.Errorf("order %v memRows=%d: stats %+v, want %d runs and %d pages each way", o, memRows, st, runs, pages)
			}
			requireEmptyDir(t, dir, "after a successful sort")
		}
	}
	// A sorted input comes back as the identity.
	sorted, _, _ := relation.OrderSpans(ivs, identity, engineOrders[3])
	for i, j := range sorted {
		ts[i], te[i] = ivs[j].Start, ivs[j].End
	}
	got, err := ExternalSortKeys(ts, te, engineOrders[3], 50, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range got {
		if int(j) != i {
			t.Fatalf("sorted input: position %d holds %d", i, j)
		}
	}
}

// Every way a spilling sort can end — a failed page write, a torn one caught
// by the merge's checksum, a failed page read — yields a typed error and an
// empty spill directory, for the key form and the comparison form alike.
func TestSortRunFaultsTypedAndCleanedUp(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(23))
	ivs := tiedSpans(rng, 900)
	ts, te := relation.ShredSpans(ivs, identity)
	schema := relation.TupleSchema
	var rows []relation.Row
	for _, iv := range ivs {
		rows = append(rows, makeRow("s", "v", iv.Start, iv.End))
	}
	o := relation.Order{relation.TSAsc}
	less := func(a, b relation.Row) bool { return a.Span(schema).Start < b.Span(schema).Start }

	forms := map[string]func(dir string) error{
		"ExternalSortKeys": func(dir string) error {
			_, err := ExternalSortKeys(ts, te, o, 250, dir, nil, nil)
			return err
		},
		"ExternalSort": func(dir string) error {
			out, err := ExternalSort(stream.FromSlice(rows), schema, less, 250, dir, nil)
			if err != nil {
				return err
			}
			_, err = stream.Collect(out)
			return err
		},
	}
	for _, c := range []struct {
		spec string
		want error
	}{
		// 250 records make two key pages and more row pages: the third
		// write lands in the second run either way.
		{"storage/page-write=error:n=3", fault.ErrInjected},
		{"storage/page-write=torn:n=3", ErrCorruptPage},
		{"storage/page-read=error:n=2", fault.ErrInjected},
	} {
		for name, sortIn := range forms {
			fault.Reset()
			if err := fault.Arm(c.spec); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			err := sortIn(dir)
			if !errors.Is(err, c.want) {
				t.Errorf("%s under %s: error %v, want %v", name, c.spec, err, c.want)
			}
			if fault.Fires("storage/page-write")+fault.Fires("storage/page-read") == 0 {
				t.Errorf("%s under %s: the failpoint never fired", name, c.spec)
			}
			requireEmptyDir(t, dir, name+" under "+c.spec)
		}
	}
}

// keyPage seals the records into a page image, cut after its last record
// (the decoders take any buffer that holds the used bytes; short seeds keep
// the fuzzer's minimizer quick).
func keyPage(recs []keyRec) []byte {
	buf := make([]byte, PageSize)
	used := pageHeaderSize
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[used:], r.key[0])
		binary.LittleEndian.PutUint64(buf[used+8:], r.key[1])
		binary.LittleEndian.PutUint32(buf[used+16:], uint32(r.idx))
		used += keyRecSize
	}
	sealPage(buf, len(recs), used)
	return buf[:used]
}

// reseal recomputes the checksum over whatever the header now claims, so a
// mutated page gets past the checksum and reaches the structural checks.
func reseal(buf []byte) {
	if len(buf) < pageHeaderSize {
		return
	}
	used := int(binary.LittleEndian.Uint16(buf[2:4]))
	if used >= pageHeaderSize && used <= len(buf) {
		sealPage(buf, int(binary.LittleEndian.Uint16(buf[0:2])), used)
	}
}

func TestDecodeKeyPageCorruption(t *testing.T) {
	recs := []keyRec{{key: relation.SortKey{1, 2}, idx: 0}, {key: relation.SortKey{1, 3}, idx: 4}}
	good := keyPage(recs)
	got, err := decodeKeyPage(good, 5, nil)
	if err != nil || len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("valid page: %v %v", got, err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for name, page := range map[string][]byte{
		"index beyond the input": good, // decoded against n=4 below
		"bit flip":               mutate(func(b []byte) { b[pageHeaderSize+3] ^= 0x10 }),
		"count above used":       mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[0:2], 3); reseal(b) }),
		"used between records":   mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[2:4], pageHeaderSize+keyRecSize+7); reseal(b) }),
		"count beyond a page":    mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[0:2], keyRecsPerPage+1); reseal(b) }),
		"short":                  good[:5],
	} {
		if _, err := decodeKeyPage(page, 4, nil); !errors.Is(err, ErrCorruptPage) {
			t.Errorf("%s: error %v, want ErrCorruptPage", name, err)
		}
	}
}

// FuzzKeyRunPage feeds arbitrary bytes to the key-page decoder, raw and
// resealed (so the structural checks behind the checksum are reached): it
// yields records whose indexes are all inside the input, or an error that
// wraps ErrCorruptPage — never a panic.
func FuzzKeyRunPage(f *testing.F) {
	f.Add(keyPage(nil), uint16(0))
	f.Add(keyPage([]keyRec{{key: relation.SortKey{7, 9}, idx: 3}, {key: relation.SortKey{7, 9}, idx: 1}}), uint16(4))
	f.Add(keyPage([]keyRec{{idx: 9}, {idx: 2}})[:40], uint16(5))
	f.Add([]byte{1, 0, 28, 0, 0, 0, 0, 0}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		for _, sealed := range []bool{false, true} {
			page := append([]byte(nil), data...)
			if sealed {
				reseal(page)
			}
			recs, err := decodeKeyPage(page, int(n), nil)
			if err != nil {
				if !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("untyped error: %v", err)
				}
				continue
			}
			if len(recs) > keyRecsPerPage {
				t.Fatalf("%d records from one page", len(recs))
			}
			for _, r := range recs {
				if r.idx < 0 || int(r.idx) >= int(n) {
					t.Fatalf("index %d outside [0,%d)", r.idx, n)
				}
			}
		}
	})
}

// FuzzDecodePage is the same contract for row pages: rows of the schema's
// arity that re-encode to the bytes they came from, or ErrCorruptPage.
func FuzzDecodePage(f *testing.F) {
	schema := relation.TupleSchema
	p := newPage()
	p.tryAdd(makeRow("Smith", "Assistant", 1, 5))
	p.tryAdd(makeRow("", "", -3, interval.Forever))
	p.finalize()
	f.Add(p.buf[:p.used])
	f.Add(p.buf[:pageHeaderSize+5])
	f.Add([]byte{255, 255, 8, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		for _, sealed := range []bool{false, true} {
			page := append([]byte(nil), data...)
			if sealed {
				reseal(page)
			}
			rows, err := decodePage(nil, page, schema)
			if err != nil {
				if !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("untyped error: %v", err)
				}
				continue
			}
			var enc []byte
			for _, r := range rows {
				if len(r) != schema.Arity() || cap(r) != len(r) {
					t.Fatalf("row of %d cells (cap %d), schema arity %d", len(r), cap(r), schema.Arity())
				}
				enc = encodeRow(enc, r)
			}
			if used := int(binary.LittleEndian.Uint16(page[2:4])); len(enc) > used-pageHeaderSize ||
				string(enc) != string(page[pageHeaderSize:pageHeaderSize+len(enc)]) {
				t.Fatalf("%d rows re-encode to %d bytes that are not the page's first", len(rows), len(enc))
			}
		}
	})
}
