package core

import (
	"fmt"

	"tdb/internal/interval"
)

// This file holds the columnar batch kernels the engine runs: the
// contain-join and overlap-join of engine.go and the three Figure 6
// semijoin scans of semijoin.go, rewritten over flat endpoint columns in
// the style of Piatov et al.'s cache-efficient sweeping. A kernel sweeps
// two sorted []interval.Time column pairs with integer cursors, keeps its
// active tuples in pooled gapless arrays (arena.go), and reports matches
// as *row indexes* into the input columns — materialization is the
// caller's concern, so a serial node and a shard worker call the same
// kernel and move no row data through the sweep. A kernel exists only for
// an operator the engine runs columnar; the other operators are
// row-at-a-time only.
//
// Each kernel is a faithful translation of its row-at-a-time counterpart
// under the ReadSweep policy: same read order, same garbage-collection
// criteria, same per-turn probe accounting, and — load-bearing for the
// engine's equivalence contract — the same emission order, which is why
// state removal compacts in insertion order instead of swap-removing.
// The row operators remain the serial reference implementation (engine
// option RowExec) and the oracle for the equivalence property tests.

// Cols is the columnar lifespan view a batch kernel sweeps over: parallel
// ValidFrom/ValidTo columns, row i spanning [TS[i], TE[i]). Kernels only
// read endpoints; value columns stay wherever the caller keeps them (the
// engine's row slices) and are joined back by index.
type Cols struct {
	TS, TE []interval.Time
}

// Len reports the number of rows in the view.
func (c Cols) Len() int { return len(c.TS) }

// Span returns row i's lifespan.
func (c Cols) Span(i int) interval.Interval {
	return interval.Interval{Start: c.TS[i], End: c.TE[i]}
}

// verifyAsc is the batch edition of the VerifyOrder wrapping: one upfront
// pass over the sort-key column instead of a per-element check in the sweep.
func verifyAsc(name, side string, key []interval.Time) error {
	for i := 1; i < len(key); i++ {
		if key[i] < key[i-1] {
			return fmt.Errorf("%s: %s input violates sort order at row %d: %d after %d", name, side, i, key[i], key[i-1])
		}
	}
	return nil
}

// BatchContainJoinTSTS is the columnar ContainJoinTSTS under ReadSweep:
// both inputs sorted on ValidFrom ascending, state = {x spanning the Y
// ValidFrom frontier} (the sweep policy keeps the lookahead component
// empty, so no y is ever retained). emit receives row indexes into x and y;
// pairs appear in exactly the row engine's order: grouped by the y that
// completes them, x's in arrival order within each group.
func BatchContainJoinTSTS(x, y Cols, opt Options, emit func(xi, yi int32)) error {
	const name = "contain-join[TS↑,TS↑]"
	if opt.VerifyOrder {
		if err := verifyAsc(name, "X", x.TS); err != nil {
			return err
		}
		if err := verifyAsc(name, "Y", y.TS); err != nil {
			return err
		}
	}
	probe := opt.Probe
	probe.SetBuffers(2)

	ar := acquireSweep()
	ats, ate, aidx := ar.x.ts[:0], ar.x.te[:0], ar.x.idx[:0]
	defer func() {
		ar.x.ts, ar.x.te, ar.x.idx = ats, ate, aidx
		ar.release()
	}()

	nx, ny := len(x.TS), len(y.TS)
	xi, yi := 0, 0
	//tdb:hotpath
	for {
		xok := xi < nx
		// Termination: Y exhausted (the spanning set can complete no more
		// pairs — no y is ever retained under sweep), or X exhausted with
		// nothing retained.
		if yi >= ny || (!xok && len(ats) == 0) {
			break
		}
		ys := y.TS[yi]
		if xok && x.TS[xi] <= ys {
			probe.IncReadLeft()
			// Retain x only if its lifespan spans the Y ValidFrom frontier.
			if x.TE[xi] > ys {
				if len(ats) == cap(ats) {
					probe.IncStateGrow()
				}
				ats = append(ats, x.TS[xi])
				ate = append(ate, x.TE[xi])
				aidx = append(aidx, int32(xi))
				probe.StateAdd(1)
				probe.ObserveActive(int64(len(ats)))
				if err := opt.checkLimit(); err != nil {
					return orderError(name, err)
				}
			}
			opt.observe()
			xi++
			continue
		}
		probe.IncReadRight()
		yte := y.TE[yi]
		// Garbage collection: x is dead once x.TE ≤ the Y ValidFrom
		// frontier (Section 4.2.1). Compact in insertion order.
		k := 0
		for j := 0; j < len(ats); j++ {
			if ate[j] <= ys {
				continue
			}
			ats[k], ate[k], aidx[k] = ats[j], ate[j], aidx[j]
			k++
		}
		probe.StateRemove(int64(len(ats) - k))
		ats, ate, aidx = ats[:k], ate[:k], aidx[:k]
		// Match surviving x's: x.TS < y.TS ∧ y.TE < x.TE.
		probe.IncComparisons(int64(k))
		for j := 0; j < k; j++ {
			if ats[j] < ys && yte < ate[j] {
				probe.IncEmitted(1)
				emit(aidx[j], int32(yi))
			}
		}
		opt.observe()
		yi++
	}
	probe.StateRemove(int64(len(ats)))
	opt.observe()
	return nil
}

// BatchOverlapJoin is the columnar OverlapJoin under ReadSweep: both
// inputs sorted on ValidFrom ascending, one spanning set per input. emit
// receives row indexes into x and y, in the row engine's emission order.
func BatchOverlapJoin(x, y Cols, opt Options, emit func(xi, yi int32)) error {
	const name = "overlap-join[TS↑,TS↑]"
	if opt.VerifyOrder {
		if err := verifyAsc(name, "X", x.TS); err != nil {
			return err
		}
		if err := verifyAsc(name, "Y", y.TS); err != nil {
			return err
		}
	}
	probe := opt.Probe
	probe.SetBuffers(2)

	ar := acquireSweep()
	xts, xte, xidx := ar.x.ts[:0], ar.x.te[:0], ar.x.idx[:0]
	yts, yte, yidx := ar.y.ts[:0], ar.y.te[:0], ar.y.idx[:0]
	defer func() {
		ar.x.ts, ar.x.te, ar.x.idx = xts, xte, xidx
		ar.y.ts, ar.y.te, ar.y.idx = yts, yte, yidx
		ar.release()
	}()

	nx, ny := len(x.TS), len(y.TS)
	xi, yi := 0, 0
	//tdb:hotpath
	for {
		xok := xi < nx
		yok := yi < ny
		if !xok && !yok {
			break
		}
		if (!xok && len(xts) == 0) || (!yok && len(yts) == 0) {
			break
		}
		if xok && (!yok || x.TS[xi] <= y.TS[yi]) {
			xs, xe := x.TS[xi], x.TE[xi]
			probe.IncReadLeft()
			// GC: y is dead once y.TE ≤ the X ValidFrom frontier.
			k := 0
			for j := 0; j < len(yts); j++ {
				if yte[j] <= xs {
					continue
				}
				yts[k], yte[k], yidx[k] = yts[j], yte[j], yidx[j]
				k++
			}
			probe.StateRemove(int64(len(yts) - k))
			yts, yte, yidx = yts[:k], yte[:k], yidx[:k]
			// Surviving y have y.TE > x.TS; intersection reduces to y.TS < x.TE.
			probe.IncComparisons(int64(k))
			for j := 0; j < k; j++ {
				if yts[j] < xe {
					probe.IncEmitted(1)
					emit(int32(xi), yidx[j])
				}
			}
			// Retain x only if it spans the Y ValidFrom frontier (with Y
			// exhausted, nothing ahead can intersect it).
			if yok && xe > y.TS[yi] {
				if len(xts) == cap(xts) {
					probe.IncStateGrow()
				}
				xts = append(xts, xs)
				xte = append(xte, xe)
				xidx = append(xidx, int32(xi))
				probe.StateAdd(1)
				probe.ObserveActive(int64(len(xts)))
				if err := opt.checkLimit(); err != nil {
					return orderError(name, err)
				}
			}
			opt.observe()
			xi++
			continue
		}
		ys, ye := y.TS[yi], y.TE[yi]
		probe.IncReadRight()
		k := 0
		for j := 0; j < len(xts); j++ {
			if xte[j] <= ys {
				continue
			}
			xts[k], xte[k], xidx[k] = xts[j], xte[j], xidx[j]
			k++
		}
		probe.StateRemove(int64(len(xts) - k))
		xts, xte, xidx = xts[:k], xte[:k], xidx[:k]
		probe.IncComparisons(int64(k))
		for j := 0; j < k; j++ {
			if xts[j] < ye {
				probe.IncEmitted(1)
				emit(xidx[j], int32(yi))
			}
		}
		if xok && ye > x.TS[xi] {
			if len(yts) == cap(yts) {
				probe.IncStateGrow()
			}
			yts = append(yts, ys)
			yte = append(yte, ye)
			yidx = append(yidx, int32(yi))
			probe.StateAdd(1)
			probe.ObserveActive(int64(len(yts)))
			if err := opt.checkLimit(); err != nil {
				return orderError(name, err)
			}
		}
		opt.observe()
		yi++
	}
	probe.StateRemove(int64(len(xts) + len(yts)))
	opt.observe()
	return nil
}

// batchContainPairScan is the columnar containPairScan (Figure 6): stream a
// holds candidate containers sorted on ValidFrom ascending, stream b the
// candidate containees sorted on ValidTo ascending; no state beyond the two
// cursors. emit receives indexes into a (emitA) or b (!emitA).
func batchContainPairScan(name string, a, b Cols, opt Options, emitA bool, emit func(int32)) error {
	if opt.VerifyOrder {
		if err := verifyAsc(name, "container", a.TS); err != nil {
			return err
		}
		if err := verifyAsc(name, "containee", b.TE); err != nil {
			return err
		}
	}
	probe := opt.Probe
	probe.SetBuffers(2)

	na, nb := len(a.TS), len(b.TS)
	ai, bi := 0, 0
	//tdb:hotpath
	for ai < na && bi < nb {
		probe.IncComparisons(1)
		switch {
		case b.TS[bi] <= a.TS[ai]:
			// b starts no later than the earliest remaining a: strictly
			// inside none of them.
			bi++
			probe.IncReadRight()
		case b.TE[bi] < a.TE[ai]:
			// a.TS < b.TS ∧ b.TE < a.TE: a contains b.
			probe.IncEmitted(1)
			if emitA {
				emit(int32(ai))
				ai++
				probe.IncReadLeft()
			} else {
				emit(int32(bi))
				bi++
				probe.IncReadRight()
			}
		default:
			// b.TE ≥ a.TE: no remaining b ends strictly inside a.
			ai++
			probe.IncReadLeft()
		}
		opt.observe()
	}
	return nil
}

// BatchContainSemijoin is the columnar ContainSemijoin: X sorted on
// ValidFrom ascending, Y on ValidTo ascending; emits X row indexes in X
// input order.
func BatchContainSemijoin(x, y Cols, opt Options, emit func(xi int32)) error {
	return batchContainPairScan("contain-semijoin[TS↑,TE↑]", x, y, opt, true, emit)
}

// BatchContainedSemijoin is the columnar ContainedSemijoin: X sorted on
// ValidTo ascending, Y on ValidFrom ascending; emits X row indexes in X
// input order.
func BatchContainedSemijoin(x, y Cols, opt Options, emit func(xi int32)) error {
	return batchContainPairScan("contained-semijoin[TE↑,TS↑]", y, x, opt, false, emit)
}

// BatchOverlapSemijoin is the columnar OverlapSemijoin: both inputs sorted
// on ValidFrom ascending, workspace exactly the two cursors; emits X row
// indexes in X input order.
func BatchOverlapSemijoin(x, y Cols, opt Options, emit func(xi int32)) error {
	const name = "overlap-semijoin[TS↑,TS↑]"
	if opt.VerifyOrder {
		if err := verifyAsc(name, "X", x.TS); err != nil {
			return err
		}
		if err := verifyAsc(name, "Y", y.TS); err != nil {
			return err
		}
	}
	probe := opt.Probe
	probe.SetBuffers(2)

	nx, ny := len(x.TS), len(y.TS)
	xi, yi := 0, 0
	//tdb:hotpath
	for xi < nx && yi < ny {
		probe.IncComparisons(1)
		switch {
		case x.TE[xi] <= y.TS[yi]:
			// x ends before the earliest remaining y begins.
			xi++
			probe.IncReadLeft()
		case y.TE[yi] <= x.TS[xi]:
			// y ends before x (and every later x) begins.
			yi++
			probe.IncReadRight()
		default:
			probe.IncEmitted(1)
			emit(int32(xi))
			xi++
			probe.IncReadLeft()
		}
		opt.observe()
	}
	return nil
}
