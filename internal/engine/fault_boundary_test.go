package engine

import (
	"errors"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/fault"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/value"
)

// A page-read fault in the storage layer must surface from a query over a
// stored relation as fault.ErrInjected — two subsystem boundaries deep.
func TestStoredScanFaultTyped(t *testing.T) {
	defer fault.Reset()
	db := newPoissonDB(t, 200)
	if err := db.StoreRelation("X", t.TempDir(), 2); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("storage/page-read=error"); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(db, joinOf(algebra.KindOverlap), Options{})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("stored scan error %v, want fault.ErrInjected", err)
	}
}

// A torn page write — the failpoint persists a prefix, as a crash
// mid-flush would — is silent at write time and must be detected at the
// next read as the typed storage.ErrCorruptPage, through the engine.
func TestStoredTornPageTyped(t *testing.T) {
	defer fault.Reset()
	db := newPoissonDB(t, 200)
	if err := fault.Arm("storage/page-write=torn"); err != nil {
		t.Fatal(err)
	}
	if err := db.StoreRelation("X", t.TempDir(), 2); err != nil {
		t.Fatalf("torn writes must be silent (a crash reports nothing): %v", err)
	}
	fault.Reset()
	_, _, err := Run(db, joinOf(algebra.KindOverlap), Options{})
	if !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("query over torn pages: %v, want storage.ErrCorruptPage", err)
	}
}

// A delta-delivery fault in a standing run surfaces from Poll as the typed
// injected error, with the run unwound (not silently short).
func TestStandingRunFaultTyped(t *testing.T) {
	defer fault.Reset()
	db := standingDB(t)
	plan, err := BuildStanding(db, governorJoin(algebra.KindOverlap))
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("engine/standing-run=error:n=1"); err != nil {
		t.Fatal(err)
	}
	run := plan.Start(nil)
	defer run.Stop()
	rows := []relation.Row{
		{value.Int(1), value.TimeVal(0), value.TimeVal(10)},
	}
	run.FeedLeft(rows)
	run.FeedRight(rows)
	if _, err := run.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("standing close error %v, want fault.ErrInjected", err)
	}
}
