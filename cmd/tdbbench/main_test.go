package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/core"
)

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	in := &benchResult{
		N: 64, Faculty: 12, Seed: 1, Policy: "sweep",
		Tables: []benchTable{{
			Name: "figure2", Title: "Figure 2", Header: []string{"a", "b"},
			Rows: [][]string{{"1", "2"}}, ElapsedNS: 5,
		}},
	}
	if err := writeJSON(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out benchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if out.N != in.N || len(out.Tables) != 1 || out.Tables[0].Name != "figure2" ||
		len(out.Tables[0].Rows) != 1 {
		t.Errorf("round-trip mismatch: %+v", out)
	}
	if err := writeJSON(filepath.Join(path, "nope", "x.json"), in); err == nil {
		t.Error("writing under a file path accepted")
	}
}

// TestParsePolicy: only sweep and lambda name a read policy; a typo is an
// error instead of a sweep run recorded under the typo.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]core.ReadPolicy{"sweep": core.ReadSweep, "lambda": core.ReadLambda} {
		if got, err := parsePolicy(name); err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"lamda", "", "Sweep", "lambda "} {
		if _, err := parsePolicy(bad); err == nil {
			t.Errorf("parsePolicy(%q) accepted", bad)
		}
	}
}
