package optimizer

import (
	"fmt"
	"math"

	"tdb/internal/catalog"
)

// This file implements the statistics-driven cost predictions the paper's
// Section 6 calls for: "in addition to conventional statistical information
// such as relation size ..., estimating the amount of local workspace
// becomes necessary". Costs are measured in predicate comparisons — the
// unit the experiments report — so estimates are directly checkable
// against metrics.Probe. Nothing chooses a plan from them: every
// recognized temporal join streams.

// JoinEstimate carries the predicted costs of evaluating one temporal join
// over two relations.
type JoinEstimate struct {
	// NestedLoop is the conventional cost: |X|·|Y| comparisons.
	NestedLoop float64
	// Stream is the single-pass cost: each read is compared against the
	// opposite retained state, whose expected size Little's law gives as
	// λ·E[duration] per contributing side.
	Stream float64
	// Workspace predicts the stream state high-water mark in tuples.
	Workspace float64
}

// String renders the estimate.
func (e JoinEstimate) String() string {
	return fmt.Sprintf("nested-loop=%.0f stream=%.0f workspace=%.1f", e.NestedLoop, e.Stream, e.Workspace)
}

// EstimateContainJoin predicts the cost of Contain-join(X,Y) under the
// (ValidFrom ↑, ValidFrom ↑) ordering. Under the sweep policy only the X
// side retains state, so the per-read comparison count is the expected X
// occupancy λx·E[Dx].
func EstimateContainJoin(sx, sy *catalog.Stats) JoinEstimate {
	nx, ny := float64(sx.Cardinality), float64(sy.Cardinality)
	state := sx.PredictedWorkspace()
	return JoinEstimate{
		NestedLoop: nx * ny,
		Stream:     (nx + ny) * math.Max(state, 1),
		Workspace:  state + 2,
	}
}

// EstimateOverlapJoin predicts Overlap-join(X,Y) under (TS ↑, TS ↑): both
// sides retain their spanning sets.
func EstimateOverlapJoin(sx, sy *catalog.Stats) JoinEstimate {
	nx, ny := float64(sx.Cardinality), float64(sy.Cardinality)
	state := sx.PredictedWorkspace() + sy.PredictedWorkspace()
	return JoinEstimate{
		NestedLoop: nx * ny,
		Stream:     (nx + ny) * math.Max(state/2, 1),
		Workspace:  state + 2,
	}
}
