package core

import (
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

// ContainedSelfSemijoin evaluates Contained-semijoin(X,X): select each x
// whose lifespan is strictly contained within that of another x of the same
// stream. The input must have primary sort order ValidFrom ascending with
// secondary ValidTo ascending (paper Figure 7). The operand is scanned once
// and the local workspace is one state tuple plus the input buffer —
// Table 3 case (a). Output preserves input order.
//
// The algorithm (Section 4.2.3): keep as the state tuple x_s the best
// container candidate seen so far. Because containers must start strictly
// earlier than their containees and the stream is sorted on ValidFrom, only
// earlier tuples can contain later ones, and among earlier tuples the one
// with the maximal ValidTo dominates; the secondary ValidTo order resolves
// the equal-ValidFrom ties soundly.
func ContainedSelfSemijoin[T any](xs stream.Stream[T], span Span[T], opt Options, emit func(T)) error {
	const name = "contained-semijoin(X,X)[TS↑,TE↑]"
	in := ordered(xs, span, relation.Order{relation.TSAsc, relation.TEAsc}, opt.VerifyOrder)
	probe := opt.Probe
	probe.SetBuffers(1)

	var xState T
	haveState := false
	for {
		xb, ok := in.Next()
		if !ok {
			break
		}
		probe.IncReadLeft()
		if !haveState {
			xState, haveState = xb, true
			probe.StateAdd(1)
			opt.observe()
			continue
		}
		ss, sb := span(xState), span(xb)
		probe.IncComparisons(1)
		switch {
		case interval.CmpStart(ss, sb) == 0:
			// Same ValidFrom: neither strictly contains the other; x_b has
			// the larger ValidTo (secondary order) so it supersedes x_s.
			xState = xb
		case interval.CmpEnd(ss, sb) <= 0:
			// x_s starts earlier but does not outlast x_b: x_b becomes the
			// new best container candidate.
			xState = xb
		default:
			// ss.Start < sb.Start ∧ sb.End < ss.End: x_b during x_s.
			probe.IncEmitted(1)
			emit(xb)
		}
	}
	if haveState {
		probe.StateRemove(1)
	}
	opt.observe()
	return orderError(name, in.Err())
}

// ContainSelfSemijoin evaluates Contain-semijoin(X,X): select each x whose
// lifespan strictly contains that of another x of the same stream. The
// input must have primary sort order ValidFrom *descending* with secondary
// ValidTo descending — Table 3 case (a) in the ValidFrom ↓ row; with this
// ordering a single state tuple suffices, mirroring ContainedSelfSemijoin.
//
// Scanning in descending ValidFrom, containees are read before their
// containers; the best containee witness among the tuples read so far is
// the one with the minimal ValidTo, with equal-ValidFrom ties resolved by
// the secondary descending ValidTo order.
func ContainSelfSemijoin[T any](xs stream.Stream[T], span Span[T], opt Options, emit func(T)) error {
	const name = "contain-semijoin(X,X)[TS↓,TE↓]"
	in := ordered(xs, span, relation.Order{relation.TSDesc, relation.TEDesc}, opt.VerifyOrder)
	probe := opt.Probe
	probe.SetBuffers(1)

	var xState T
	haveState := false
	for {
		xb, ok := in.Next()
		if !ok {
			break
		}
		probe.IncReadLeft()
		if !haveState {
			xState, haveState = xb, true
			probe.StateAdd(1)
			opt.observe()
			continue
		}
		ss, sb := span(xState), span(xb)
		probe.IncComparisons(1)
		switch {
		case interval.CmpStart(ss, sb) == 0:
			// Same ValidFrom: x_b has the smaller ValidTo (secondary
			// descending order) and supersedes x_s as witness.
			xState = xb
		case interval.CmpEnd(sb, ss) <= 0:
			// x_b starts earlier but does not outlast x_s: x_b is the new
			// best (smallest-ValidTo) containee witness.
			xState = xb
		default:
			// sb.Start < ss.Start ∧ ss.End < sb.End: x_b contains x_s.
			probe.IncEmitted(1)
			emit(xb)
		}
	}
	if haveState {
		probe.StateRemove(1)
	}
	opt.observe()
	return orderError(name, in.Err())
}

// ContainSelfSemijoinTSAsc evaluates Contain-semijoin(X,X) on input sorted
// ValidFrom ascending — the suboptimal ordering of Table 3, whose state is
// a subset of the not-yet-matched tuples overlapping the frontier
// (case (b)). The experiments contrast its workspace against the
// single-tuple state of the descending-order algorithm: the optimal sort
// order depends on the operator, not just the data.
func ContainSelfSemijoinTSAsc[T any](xs stream.Stream[T], span Span[T], opt Options, emit func(T)) error {
	const name = "contain-semijoin(X,X)[TS↑]"
	in := ordered(xs, span, relation.Order{relation.TSAsc}, opt.VerifyOrder)
	probe := opt.Probe
	probe.SetBuffers(1)

	var state []held[T] // candidate containers not yet reported
	for {
		xb, ok := in.Next()
		if !ok {
			break
		}
		probe.IncReadLeft()
		sb := span(xb)
		kept := state[:0]
		for _, h := range state {
			probe.IncComparisons(1)
			switch {
			case containMatch(h.span, sb):
				// h contains x_b: report h once and retire it.
				probe.IncEmitted(1)
				emit(h.elem)
				probe.StateRemove(1)
			case h.span.End <= sb.Start+1:
				// h ends by the frontier: no future tuple fits strictly
				// inside it (future x have TS ≥ sb.Start, TE ≥ TS+1).
				probe.StateRemove(1)
			default:
				kept = append(kept, h)
			}
		}
		state = kept
		state = append(state, held[T]{elem: xb, span: sb})
		probe.StateAdd(1)
		opt.observe()
	}
	probe.StateRemove(int64(len(state)))
	opt.observe()
	return orderError(name, in.Err())
}
