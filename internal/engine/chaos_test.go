package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/fault"
	"tdb/internal/optimizer"
	"tdb/internal/storage"
	"tdb/internal/testutil"
)

// chaosAcceptable are the error identities a chaos run may surface; any
// other failure is a robustness bug.
func chaosAcceptable(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, storage.ErrCorruptPage)
}

// TestChaosSuperstar runs the full Superstar pipeline — semantic
// optimization, semijoin introduction, stored scans, external sorts —
// under randomized (seeded) fault schedules that hit the page reads of the
// stored relation and of the sort's run files, and the run files' page
// writes, probabilistically. Acceptance: either the run fails with a clean
// typed error, or its output is byte-identical to the fault-free
// reference — and in both cases no run file is left in SpillDir.
func TestChaosSuperstar(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := newFacultyDB(t, 60, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	if err := db.StoreRelation("Faculty", t.TempDir(), 2); err != nil {
		t.Fatal(err)
	}
	tree := optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})
	opt := Options{SortMemRows: 8, SpillDir: t.TempDir(), VerifyOrder: true}
	ref, _, err := Run(db, tree, opt)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("degenerate fixture: Superstar emits no rows")
	}

	schedule := func(rng *rand.Rand) []string {
		specs := []string{
			fmt.Sprintf("storage/page-read=error:p=0.1:seed=%d", rng.Int63()),
			fmt.Sprintf("storage/page-write=error:p=0.1:seed=%d", rng.Int63()),
		}
		// Arm a random non-empty subset.
		var armed []string
		for _, s := range specs {
			if rng.Intn(2) == 0 {
				armed = append(armed, s)
			}
		}
		if len(armed) == 0 {
			armed = append(armed, specs[rng.Intn(len(specs))])
		}
		return armed
	}

	failures := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fault.Reset()
		for _, spec := range schedule(rng) {
			if err := fault.Arm(spec); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := Run(db, tree, opt)
		fault.Reset()
		requireEmptySpillDir(t, opt.SpillDir, fmt.Sprintf("chaos seed %d", seed))
		if err != nil {
			failures++
			if !chaosAcceptable(err) {
				t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
			}
			continue
		}
		identicalRows(t, fmt.Sprintf("chaos seed %d", seed), ref, res)
	}
	if failures == 0 {
		t.Fatal("chaos schedules never fired; the sweep is not exercising the fault paths")
	}

	// The fixture must be intact after the sweep: a final fault-free run
	// still reproduces the reference byte for byte.
	after, _, err := Run(db, tree, opt)
	if err != nil {
		t.Fatalf("post-chaos run: %v", err)
	}
	identicalRows(t, "post-chaos", ref, after)
}
