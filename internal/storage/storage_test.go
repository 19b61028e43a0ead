package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/value"
)

func testSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.TupleSchema
}

func makeRow(s string, v string, from, to interval.Time) relation.Row {
	return relation.TupleToRow(relation.Tuple{S: s, V: value.String_(v), Span: interval.New(from, to)})
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := relation.MustSchema([]relation.Column{
		{Name: "A", Kind: value.KindString},
		{Name: "B", Kind: value.KindInt},
		{Name: "F", Kind: value.KindTime},
		{Name: "T", Kind: value.KindTime},
	}, 2, 3)
	f := func(a string, b int64, from int32, durRaw uint8) bool {
		if len(a) > 60000 {
			a = a[:60000]
		}
		dur := int64(durRaw) + 1
		row := relation.Row{
			value.String_(a), value.Int(b),
			value.TimeVal(interval.Time(from)), value.TimeVal(interval.Time(int64(from) + dur)),
		}
		enc := encodeRow(nil, row)
		dec := make(relation.Row, len(row))
		n, err := decodeRow(dec, string(enc), 0, schema)
		return err == nil && n == len(enc) && n == rowSize(row) && dec.Equal(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRowTruncation(t *testing.T) {
	schema := testSchema(t)
	enc := encodeRow(nil, makeRow("Smith", "Assistant", 1, 5))
	row := make(relation.Row, schema.Arity())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeRow(row, string(enc[:cut]), 0, schema); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestHeapFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hf, err := Create(filepath.Join(dir, "f.tdb"), testSchema(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()

	const n = 500
	var want []relation.Row
	for i := 0; i < n; i++ {
		row := makeRow("S", strings.Repeat("v", i%40), interval.Time(i), interval.Time(i+3))
		want = append(want, row)
		if err := hf.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stream.Collect(hf.Scan())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d rows, want %d", len(got), n)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
	if hf.Pages() == 0 {
		t.Error("expected multiple pages for 500 rows")
	}
	if hf.Stats().PagesRead == 0 {
		t.Error("scan should read pages")
	}
}

func TestHeapFileTailOnly(t *testing.T) {
	dir := t.TempDir()
	hf, err := Create(filepath.Join(dir, "tail.tdb"), testSchema(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	row := makeRow("S", "v", 0, 5)
	if err := hf.Append(row); err != nil {
		t.Fatal(err)
	}
	got, err := stream.Collect(hf.Scan())
	if err != nil || len(got) != 1 || !got[0].Equal(row) {
		t.Fatalf("tail scan: %v %v", got, err)
	}
	// Empty file scans cleanly too.
	hf2, err := Create(filepath.Join(dir, "empty.tdb"), testSchema(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hf2.Close()
	got, err = stream.Collect(hf2.Scan())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty scan: %v %v", got, err)
	}
}

func TestBufferPoolCountsHits(t *testing.T) {
	dir := t.TempDir()
	hf, err := Create(filepath.Join(dir, "pool.tdb"), testSchema(t), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	for i := 0; i < 400; i++ {
		if err := hf.Append(makeRow("S", "value-string", interval.Time(i), interval.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stream.Collect(hf.Scan()); err != nil {
		t.Fatal(err)
	}
	firstReads := hf.Stats().PagesRead
	if _, err := stream.Collect(hf.Scan()); err != nil {
		t.Fatal(err)
	}
	if hf.Stats().PagesRead != firstReads {
		t.Errorf("second scan read %d more pages despite large pool", hf.Stats().PagesRead-firstReads)
	}
	if hf.Stats().PoolHits == 0 {
		t.Error("no pool hits recorded")
	}

	// A pool of 1 frame cannot serve a large re-scan.
	hf2, err := Create(filepath.Join(dir, "small.tdb"), testSchema(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hf2.Close()
	for i := 0; i < 400; i++ {
		if err := hf2.Append(makeRow("S", "value-string", interval.Time(i), interval.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	stream.Collect(hf2.Scan())
	r1 := hf2.Stats().PagesRead
	stream.Collect(hf2.Scan())
	if hf2.Stats().PagesRead <= r1 {
		t.Error("tiny pool should force re-reads")
	}
}

func TestExternalSort(t *testing.T) {
	schema := testSchema(t)
	lessTS := func(a, b relation.Row) bool {
		return a.Span(schema).Start < b.Span(schema).Start
	}
	rng := rand.New(rand.NewSource(5))
	for _, memRows := range []int{1, 7, 64, 100000} {
		var rows []relation.Row
		for i := 0; i < 300; i++ {
			s := interval.Time(rng.Intn(1000))
			rows = append(rows, makeRow("S", "v", s, s+1+interval.Time(rng.Intn(20))))
		}
		var stats SortStats
		out, err := ExternalSort(stream.FromSlice(rows), schema, lessTS, memRows, t.TempDir(), &stats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stream.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("memRows=%d: %d rows out, want %d", memRows, len(got), len(rows))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Span(schema).Start < got[i-1].Span(schema).Start {
				t.Fatalf("memRows=%d: output unsorted at %d", memRows, i)
			}
		}
		wantRuns := (len(rows) + memRows - 1) / memRows
		if memRows >= len(rows) {
			wantRuns = 1
			if stats.PagesRead != 0 || stats.PagesWritten != 0 {
				t.Errorf("in-memory sort did I/O: %+v", stats)
			}
		}
		if stats.Runs != wantRuns {
			t.Errorf("memRows=%d: runs=%d want %d", memRows, stats.Runs, wantRuns)
		}
	}
}

// External sort is stable within runs and exact as a multiset.
func TestExternalSortMultiset(t *testing.T) {
	schema := testSchema(t)
	lessTS := func(a, b relation.Row) bool {
		return a.Span(schema).Start < b.Span(schema).Start
	}
	rng := rand.New(rand.NewSource(6))
	var rows []relation.Row
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		s := interval.Time(rng.Intn(50))
		r := makeRow("S", "v", s, s+1)
		rows = append(rows, r)
		counts[r.Key()]++
	}
	out, err := ExternalSort(stream.FromSlice(rows), schema, lessTS, 13, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		counts[r.Key()]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("multiset mismatch for %q: %d", k, c)
		}
	}
}

// Both entry points are stable at every workspace: on inputs full of equal
// keys the spilled sequence is exactly the in-memory stable sort's — for the
// key form the engine spills through, with the comparison form as its
// reference, and both against sort.SliceStable.
func TestExternalSortStableAtEveryWorkspace(t *testing.T) {
	schema := testSchema(t)
	span := func(r relation.Row) interval.Interval { return r.Span(schema) }
	rng := rand.New(rand.NewSource(18))
	var rows []relation.Row
	for i := 0; i < 500; i++ {
		s := interval.Time(rng.Intn(9) - 4)
		e := s + 1 + interval.Time(rng.Intn(3))
		if rng.Intn(8) == 0 {
			e = interval.Forever
		}
		rows = append(rows, makeRow(fmt.Sprintf("s%03d", i), "v", s, e))
	}
	ts, te := relation.ShredSpans(rows, span)
	for _, o := range []relation.Order{
		{relation.TSAsc}, {relation.TEDesc}, {relation.TSAsc, relation.TEAsc}, {relation.TEAsc, relation.TSDesc},
	} {
		want := append([]relation.Row(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool { return o.Compare(span(want[i]), span(want[j])) < 0 })
		less := func(a, b relation.Row) bool { return o.Compare(span(a), span(b)) < 0 }
		for _, memRows := range []int{7, 64, 499, 500} {
			out, err := ExternalSort(stream.FromSlice(rows), schema, less, memRows, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := stream.Collect(out)
			if err != nil {
				t.Fatal(err)
			}
			perm, err := ExternalSortKeys(ts, te, o, memRows, t.TempDir(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) != len(want) || len(perm) != len(want) {
				t.Fatalf("order %v memRows=%d: %d rows, %d indexes, want %d", o, memRows, len(ref), len(perm), len(want))
			}
			for i := range want {
				if ref[i].Key() != want[i].Key() {
					t.Fatalf("ExternalSort order %v memRows=%d: row %d is %q, stable reference %q",
						o, memRows, i, ref[i].Key(), want[i].Key())
				}
				if got := rows[perm[i]]; got.Key() != ref[i].Key() {
					t.Fatalf("ExternalSortKeys order %v memRows=%d: row %d is %q, comparison form %q",
						o, memRows, i, got.Key(), ref[i].Key())
				}
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rel := relation.FromTuples("Faculty", []relation.Tuple{
		{S: "Smith", V: value.String_("Assistant"), Span: interval.New(1, 5)},
		{S: "Jones, Jr.", V: value.String_("Full \"tenured\""), Span: interval.New(3, interval.Forever)},
	})
	path := filepath.Join(t.TempDir(), "rel.csv")
	if err := SaveCSV(path, rel); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path, "Faculty", relation.TupleSchema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cardinality() != 2 {
		t.Fatalf("round trip lost rows: %d", back.Cardinality())
	}
	for i := range rel.Rows {
		if !back.Rows[i].Equal(rel.Rows[i]) {
			t.Errorf("row %d: %v vs %v", i, back.Rows[i], rel.Rows[i])
		}
	}
}

func TestCSVValidation(t *testing.T) {
	schema := relation.TupleSchema
	cases := []struct {
		name, csv string
	}{
		{"wrong header name", "S,V,From,ValidTo\n"},
		{"wrong arity", "S,V,ValidFrom\n"},
		{"bad time", "S,V,ValidFrom,ValidTo\na,b,x,5\n"},
		{"violates intra-tuple", "S,V,ValidFrom,ValidTo\na,b,9,5\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv), "R", schema); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestObserveIOCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ObserveIO(reg)
	defer ObserveIO(nil)

	dir := t.TempDir()
	schema := testSchema(t)
	hf, err := Create(filepath.Join(dir, "obs.tdb"), schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hf.Close() }()
	for i := 0; i < 500; i++ {
		s := interval.Time(i)
		if err := hf.Append(makeRow("S", "v", s, s+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hf.Flush(); err != nil {
		t.Fatal(err)
	}
	for s := hf.Scan(); ; {
		if _, ok := s.Next(); !ok {
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	read := reg.Counter("tdb_storage_pages_read_total", "").Value()
	written := reg.Counter("tdb_storage_pages_written_total", "").Value()
	if read != hf.Stats().PagesRead || read == 0 {
		t.Errorf("live pages-read = %d, file stats = %d", read, hf.Stats().PagesRead)
	}
	if written != hf.Stats().PagesWritten || written == 0 {
		t.Errorf("live pages-written = %d, file stats = %d", written, hf.Stats().PagesWritten)
	}

	// External sort with a tiny memory budget produces counted run files.
	lessTS := func(a, b relation.Row) bool {
		return a.Span(schema).Start < b.Span(schema).Start
	}
	var stats SortStats
	out, err := ExternalSort(hf.Scan(), schema, lessTS, 50, dir, &stats)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := out.Next(); !ok {
			if err := out.Err(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	runs := reg.Counter("tdb_storage_sort_runs_total", "").Value()
	if runs != int64(stats.Runs) || runs == 0 {
		t.Errorf("live sort-runs = %d, sort stats = %d", runs, stats.Runs)
	}

	// Turning observation off stops the counters.
	ObserveIO(nil)
	before := reg.Counter("tdb_storage_pages_read_total", "").Value()
	for s := hf.Scan(); ; {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if after := reg.Counter("tdb_storage_pages_read_total", "").Value(); after != before {
		t.Errorf("counters moved after ObserveIO(nil): %d -> %d", before, after)
	}
}
