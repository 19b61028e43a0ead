package live

import (
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
)

// TestPropertyInterleavingsMatchBatch is the delta-equality property: for
// ANY interleaving of slack-bounded appends across the two inputs, any poll
// schedule, the accumulated deltas of an accepted standing query equal the
// one-shot batch execution of the same operator over the final relation
// contents — byte-identical, in order.
func TestPropertyInterleavingsMatchBatch(t *testing.T) {
	kinds := []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap}
	for trial := 0; trial < 24; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			kind := kinds[trial%len(kinds)]
			semi := trial%2 == 0
			slackX := interval.Time(rng.Intn(8))
			slackY := interval.Time(rng.Intn(8))

			db := newXYDB(t)
			m := NewManager(db, nil, engine.Options{})
			defer m.Close()
			if _, err := m.Live("X", slackX); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Live("Y", slackY); err != nil {
				t.Fatal(err)
			}
			tree := xyTree(kind, semi)
			q, err := m.Register("q", tree, RegisterOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Per-relation TS frontiers advance independently; jitter stays
			// within the slack so nothing is rejected.
			n := 60 + rng.Intn(120)
			var tsX, tsY interval.Time
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					tsX += interval.Time(rng.Intn(4))
					from := tsX
					if slackX > 0 {
						from += interval.Time(rng.Intn(int(slackX)))
					}
					if err := m.Append("X", xrow(i, from, from+interval.Time(1+rng.Intn(15)))); err != nil {
						t.Fatalf("append X: %v", err)
					}
				} else {
					tsY += interval.Time(rng.Intn(4))
					from := tsY
					if slackY > 0 {
						from += interval.Time(rng.Intn(int(slackY)))
					}
					if err := m.Append("Y", xrow(3000+i, from, from+interval.Time(1+rng.Intn(15)))); err != nil {
						t.Fatalf("append Y: %v", err)
					}
				}
				if rng.Intn(11) == 0 {
					if _, err := q.Poll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Flush()
			if _, err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			sameSequence(t, fmt.Sprintf("%v semi=%v", kind, semi), q.Deltas(), batchRows(t, db, tree))
			if ws := q.Workspace(); ws > 0 {
				if b := q.Bound(); float64(ws) > b {
					t.Fatalf("workspace HWM %d exceeds bound %.1f", ws, b)
				}
			}
		})
	}
}
