package storage

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/value"
)

func TestDecodePageCorruption(t *testing.T) {
	schema := relation.TupleSchema
	// A well-formed page first.
	p := newPage()
	if !p.tryAdd(makeRow("s", "v", 1, 2)) {
		t.Fatal("row did not fit")
	}
	p.finalize()
	if rows, err := decodePage(nil, p.buf[:], schema); err != nil || len(rows) != 1 {
		t.Fatalf("valid page rejected: %v %v", rows, err)
	}

	// Corrupt the used counter beyond the page.
	var corrupt [PageSize]byte
	copy(corrupt[:], p.buf[:])
	binary.LittleEndian.PutUint16(corrupt[2:4], PageSize+1)
	if _, err := decodePage(nil, corrupt[:PageSize], schema); err == nil {
		t.Error("oversized used accepted")
	}

	// Claim more rows than encoded.
	copy(corrupt[:], p.buf[:])
	binary.LittleEndian.PutUint16(corrupt[0:2], 9)
	if _, err := decodePage(nil, corrupt[:], schema); err == nil {
		t.Error("row-count overrun accepted")
	}

	// Short buffer.
	if _, err := decodePage(nil, []byte{1, 2}, schema); err == nil {
		t.Error("short page accepted")
	}
}

func TestHeapFileRowTooBig(t *testing.T) {
	hf, err := Create(filepath.Join(t.TempDir(), "big.tdb"), relation.TupleSchema, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	huge := relation.TupleToRow(relation.Tuple{
		S:    strings.Repeat("x", PageSize),
		V:    value.String_("v"),
		Span: interval.New(0, 1),
	})
	if err := hf.Append(huge); err == nil {
		t.Error("oversized row accepted")
	}
}

func TestCreateInMissingDir(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "nope", "f.tdb"), relation.TupleSchema, 1); err == nil {
		t.Error("create in missing directory succeeded")
	}
}

func TestExternalSortInputError(t *testing.T) {
	schema := relation.TupleSchema
	boom := errors.New("boom")
	rows := []relation.Row{makeRow("a", "v", 0, 1), makeRow("b", "v", 1, 2)}
	in := stream.FailAfter(stream.FromSlice(rows), 1, boom)
	_, err := ExternalSort(in, schema, func(a, b relation.Row) bool { return false }, 10, t.TempDir(), nil)
	if !errors.Is(err, boom) {
		t.Errorf("input failure not surfaced: %v", err)
	}
}

func TestExternalSortEmpty(t *testing.T) {
	out, err := ExternalSort(stream.Empty[relation.Row](), relation.TupleSchema,
		func(a, b relation.Row) bool { return false }, 4, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stream.Collect(out)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty sort: %v %v", rows, err)
	}
}

func TestSaveCSVToMissingDir(t *testing.T) {
	rel := relation.FromTuples("R", nil)
	if err := SaveCSV(filepath.Join(t.TempDir(), "nope", "r.csv"), rel); err == nil {
		t.Error("save into missing dir succeeded")
	}
	if _, err := LoadCSV(filepath.Join(t.TempDir(), "absent.csv"), "R", relation.TupleSchema); err == nil {
		t.Error("load of absent file succeeded")
	}
}
