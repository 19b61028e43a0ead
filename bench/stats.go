package main

import (
	"math"
	"sort"
	"strconv"

	"tdb/internal/relation"
	"tdb/internal/value"
)

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile returns the p-th percentile (nearest rank) of xs, lowered
// to the highest percentile that still has at least ten samples beyond it:
// on a shared box a tail read from fewer samples is one scheduler hiccup.
// It returns 0 when even the median cannot be backed that way.
func tailPercentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n < 20 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-10 {
		rank = n - 10
	}
	return s[rank-1]
}

// geomean is the scale-free average of positive values: a tenth lost on a
// 3 ms operation kind moves it as much as a tenth lost on a 100 ms one.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// iqrShare is the inter-quartile distance of xs as a share of their median
// (inclusive quartiles by linear interpolation); 0 for fewer than 4 samples.
func iqrShare(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	m := q(0.5)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// resultHash is an order-sensitive FNV-1a digest of a result: every cell
// is rendered the same way whether it arrives as an engine value or as a
// decoded wire cell, so an embedded result and a wire result of the same
// statement hash alike exactly when they carry the same rows in order.
type resultHash struct {
	rows int
	sum  uint64
}

type hasher struct {
	h    uint64
	rows int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHasher() *hasher { return &hasher{h: fnvOffset} }

func (h *hasher) bytes(b []byte) {
	for _, c := range b {
		h.h = (h.h ^ uint64(c)) * fnvPrime
	}
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.h = (h.h ^ uint64(s[i])) * fnvPrime
	}
	h.h = (h.h ^ 0x1f) * fnvPrime
}

func (h *hasher) int(v int64) {
	var buf [20]byte
	h.bytes(strconv.AppendInt(buf[:0], v, 10))
	h.h = (h.h ^ 0x1f) * fnvPrime
}

func (h *hasher) endRow() {
	h.h = (h.h ^ 0x1e) * fnvPrime
	h.rows++
}

func (h *hasher) row(r relation.Row) {
	for _, v := range r {
		if v.Kind() == value.KindString {
			h.str(v.AsString())
		} else {
			h.int(v.AsInt())
		}
	}
	h.endRow()
}

func (h *hasher) result() resultHash { return resultHash{rows: h.rows, sum: h.h} }

func hashRows(rows []relation.Row) resultHash {
	h := newHasher()
	for _, r := range rows {
		h.row(r)
	}
	return h.result()
}
