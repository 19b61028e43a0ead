package driver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tdb/internal/wire"
)

// oracleResponse is a query response as the driver decoded it before its
// row scanner: encoding/json with UseNumber, rows boxed as [][]any.
type oracleResponse struct {
	Columns       []wireColumn `json:"columns"`
	Rows          [][]any      `json:"rows"`
	Into          string       `json:"into,omitempty"`
	Contradiction bool         `json:"contradiction,omitempty"`
	Notes         []string     `json:"notes,omitempty"`
	ElapsedNS     int64        `json:"elapsed_ns"`
}

// oracleDecode is the reference decoder: the whole body one JSON value,
// decoded by encoding/json with UseNumber, then every cell converted as
// Rows.Next converted it (strings stay strings, numbers must be int64
// literals), with each row's arity and each cell's JSON type held to its
// column.
func oracleDecode(body []byte) (*oracleResponse, error) {
	var o oracleResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&o); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the response: %v", err)
	}
	for i, row := range o.Rows {
		if len(row) != len(o.Columns) {
			return nil, fmt.Errorf("row %d: %d cells for %d columns", i, len(row), len(o.Columns))
		}
		for j, cell := range row {
			switch v := cell.(type) {
			case string:
				if o.Columns[j].Kind != "string" {
					return nil, fmt.Errorf("row %d: string in a %s column", i, o.Columns[j].Kind)
				}
			case json.Number:
				n, err := v.Int64()
				if err != nil || o.Columns[j].Kind == "string" {
					return nil, fmt.Errorf("row %d: number %s in a %s column", i, v, o.Columns[j].Kind)
				}
				row[j] = n
			default:
				return nil, fmt.Errorf("row %d: JSON %T", i, cell)
			}
		}
	}
	return &o, nil
}

// FuzzQueryResponse holds the driver's one-scan response decoder to
// encoding/json: for any body, both reject it, or both accept it with the
// same envelope, columns and cells. Keys in any order or case, unknown and
// duplicate members, nulls, escapes, invalid UTF-8 and numbers out of
// int64 range are all fair game.
func FuzzQueryResponse(f *testing.F) {
	cols := `"columns":[{"name":"Name","kind":"string"},{"name":"At","kind":"time","temporal":"start"}]`
	for _, body := range []string{
		`{` + cols + `,"rows":[["alice",1],["bob",9223372036854775806]],"elapsed_ns":12}`,
		`{` + cols + `,"rows":[],"into":"E","contradiction":true,"notes":["n"],"elapsed_ns":0}`,
		`{"rows":[["a",-0]],` + cols + `}`,
		`{` + cols + `,"rows":[["a",1.5]]}`,
		`{` + cols + `,"rows":[["a",9223372036854775808]]}`,
		`{` + cols + `,"rows":[[1,1]]}`,
		`{` + cols + `,"rows":[["a",1],null]}`,
		`{` + cols + `,"rows":[["a",1.5]],"rows":[]}`,
		`{` + cols + `,"rows":["x"],"rows":[]}`,
		`{"ROWS":[["a",1]],"Columns":[{"name":"a","kind":"string"},{"name":"b","kind":"int"}]}`,
		`{` + cols + `,"rows":[["é\ud800 <&>",2]],"extra":{"x":[1,{"y":null}]}}`,
		`{` + cols + `,"rows":[["a",1]]} `,
		`{` + cols + `,"rows":[["a",1]]}x`,
		`{` + cols + `,"rows":[["a",1]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := oracleDecode(body)
		var got queryResponse
		gerr := got.decode(string(body))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: decode %v, encoding/json %v", body, gerr, werr)
		}
		if gerr != nil {
			var se *wire.SyntaxError
			var ce *wire.CellError
			var te *json.UnmarshalTypeError
			if !errors.As(gerr, &se) && !errors.As(gerr, &ce) && !errors.As(gerr, &te) {
				t.Fatalf("%s: untyped error %T %v", body, gerr, gerr)
			}
			return
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || got.Into != want.Into || got.Contradiction != want.Contradiction ||
			!reflect.DeepEqual(got.Notes, want.Notes) || got.ElapsedNS != want.ElapsedNS {
			t.Fatalf("%s: envelope %+v, encoding/json %+v", body, got, want)
		}
		if got.n != len(want.Rows) || len(got.cells) != len(want.Columns) {
			t.Fatalf("%s: %d rows in %d columns, encoding/json %d rows in %d", body, got.n, len(got.cells), len(want.Rows), len(want.Columns))
		}
		for i, row := range want.Rows {
			for j, cell := range row {
				var v any
				if c := got.cells[j]; c.Strings != nil {
					v = c.Strings[i]
				} else {
					v = c.Ints[i]
				}
				if v != cell {
					t.Fatalf("%s: row %d cell %d is %#v, encoding/json %#v", body, i, j, v, cell)
				}
			}
		}
	})
}

// oracleDeltas is the reference "deltas" payload decoder: the payload one
// JSON value, decoded by encoding/json with UseNumber, then every row held
// to the column count and every cell to its column's kind — a string for a
// string column, an int64 literal for any other.
func oracleDeltas(data string, strCols []bool) (Deltas, error) {
	var o struct {
		Seq  int64   `json:"seq"`
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(strings.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&o); err != nil {
		return Deltas{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Deltas{}, fmt.Errorf("data after the payload: %v", err)
	}
	for i, row := range o.Rows {
		if len(row) != len(strCols) {
			return Deltas{}, fmt.Errorf("row %d: %d cells for %d columns", i, len(row), len(strCols))
		}
		for j, cell := range row {
			switch v := cell.(type) {
			case string:
				if !strCols[j] {
					return Deltas{}, fmt.Errorf("row %d: string in an integer column", i)
				}
			case json.Number:
				n, err := v.Int64()
				if err != nil || strCols[j] {
					return Deltas{}, fmt.Errorf("row %d: number %s in column %d", i, v, j)
				}
				row[j] = n
			default:
				return Deltas{}, fmt.Errorf("row %d: JSON %T", i, cell)
			}
		}
	}
	return Deltas{Seq: o.Seq, Rows: o.Rows}, nil
}

// FuzzEventStream feeds arbitrary bytes to the subscription's event
// reader: repeated readEvent calls on one bufio.Reader each return an
// event or an error — never a panic, and never more events than the
// stream has lines. Every "deltas" payload then goes through decodeDeltas
// under fuzzed column kinds (up to three columns, each a string or an
// integer column), held to encoding/json: both reject it, or both accept
// it with the same seq and cells.
func FuzzEventStream(f *testing.F) {
	meta := `event: meta` + "\n" + `data: {"name":"watch","mode":"incremental","columns":[{"name":"Name","kind":"string"}],"resume":"s1.1.watch","replay_cap":64}` + "\n\n"
	for _, stream := range []string{
		meta + "event: deltas\ndata: {\"seq\":1,\"rows\":[[\"ada\",7]]}\n\n",
		"event: deltas\ndata: {\"seq\":2,\"rows\":[[\"a\",1],[\"b\",9223372036854775807]]}\n\nevent: drain\ndata: {}\n\n",
		"event: deltas\ndata: {\"rows\":[[\"a\",1.5]],\"rows\":[],\"seq\":3}\n\n",
		"event: deltas\ndata: {\"seq\":1,\"rows\":[[\"a\",1]]} garbage\n\n",
		"event: deltas\ndata: {\"seq\":\"1\",\"rows\":null}\n\n",
		"event: deltas\ndata: {\"SEQ\":4,\"Rows\":[[\"\\ud800 <&>\",-0]],\"x\":{}}\n\n",
		"event: deltas\ndata: {\"seq\":1,\"rows\":[[\"a\",9223372036854775808]]}\n\n",
		"event: error\ndata: {\"code\":\"breaker_open\",\"message\":\"m\"}\n\n",
		"data: x\n\n\n\nevent: deltas\n",
		"event: deltas\ndata: {\"seq\":1,\"rows\":[[\"a\",1]\n\n",
		"event: \n\n",
		"",
	} {
		f.Add([]byte(stream), uint8(1|1<<2))
		f.Add([]byte(stream), uint8(2|1<<2))
	}
	f.Fuzz(func(t *testing.T, stream []byte, kinds uint8) {
		strCols := make([]bool, kinds&3)
		for j := range strCols {
			strCols[j] = kinds>>(2+j)&1 == 1
		}
		br := bufio.NewReader(bytes.NewReader(stream))
		lines := bytes.Count(stream, []byte("\n"))
		for events := 0; ; events++ {
			ev, data, err := readEvent(br)
			if err != nil {
				if err != io.EOF {
					t.Fatalf("readEvent: %v, want io.EOF at the end of the stream", err)
				}
				return
			}
			if events >= lines {
				t.Fatalf("readEvent returned %d events from %d lines", events+1, lines)
			}
			if ev == "" || strings.Contains(ev, "\n") || strings.Contains(data, "\n") {
				t.Fatalf("readEvent returned event %q, data %q", ev, data)
			}
			if ev != "deltas" {
				continue
			}
			got, gerr := decodeDeltas(data, strCols)
			want, werr := oracleDeltas(data, strCols)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s under %v: decodeDeltas %v, encoding/json %v", data, strCols, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if got.Seq != want.Seq || len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: seq %d with %d rows, encoding/json seq %d with %d", data, got.Seq, len(got.Rows), want.Seq, len(want.Rows))
			}
			for i, row := range want.Rows {
				if len(got.Rows[i]) != len(row) {
					t.Fatalf("%s: row %d has %d cells, encoding/json %d", data, i, len(got.Rows[i]), len(row))
				}
				for j, cell := range row {
					if got.Rows[i][j] != cell {
						t.Fatalf("%s: row %d cell %d is %#v, encoding/json %#v", data, i, j, got.Rows[i][j], cell)
					}
				}
			}
		}
	})
}
